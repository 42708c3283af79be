"""Independent oracles used to derive expected values in the tests.

Each oracle recomputes its target along a route that shares no code with
the library path it checks: elementary closed forms, direct quadrature,
dense linear algebra, or exact moment identities for chi-square ratios.
"""

import functools

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln


def chi2_pdf(x, k):
    """Central chi-square density with k degrees of freedom, in log space:
    exp((k/2-1) log x - x/2 - (k/2) log 2 - lgamma(k/2)), finite far into
    the tails. Scalars or arrays; the k = 2 origin takes its limit 1/2."""
    if int(k) != k or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    scalar = np.ndim(x) == 0
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("chi-square density requires x >= 0")
    half = 0.5 * k
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp((half - 1.0) * np.log(x) - 0.5 * x - half * np.log(2.0) - gammaln(half))
    if k == 2:
        out = np.where(x == 0.0, 0.5, out)
    return float(out) if scalar else out


def chi2_pdf_df4(x):
    """Elementary 4-df chi-square density, x e^{-x/2}/4; no gamma calls."""
    return 0.25 * x * np.exp(-0.5 * x)


def chi2_cdf_df4_quad(x):
    val, _ = quad(chi2_pdf_df4, 0.0, x, epsabs=1e-13, epsrel=1e-12)
    return val


def f_density(x, d1, d2):
    """F density in log space; independent of the incomplete-beta CDF."""
    a, b = 0.5 * d1, 0.5 * d2
    logc = a * np.log(d1 / d2) + gammaln(a + b) - gammaln(a) - gammaln(b)
    return np.exp(logc + (a - 1.0) * np.log(x) - (a + b) * np.log1p(d1 * x / d2))


def f_cdf_quad(x, d1, d2):
    val, _ = quad(f_density, 0.0, x, args=(d1, d2), epsabs=1e-12, epsrel=1e-11, limit=200)
    return val


def f_quantile_by_quadrature(q, d1, d2):
    lo, hi = 0.0, 1.0
    while f_cdf_quad(hi, d1, d2) < q:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f_cdf_quad(mid, d1, d2) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ratio_chi2_density(w, p, n):
    """Density of U/V with U ~ chi^2_p, V ~ chi^2_n independent."""
    logc = gammaln(0.5 * (p + n)) - gammaln(0.5 * p) - gammaln(0.5 * n)
    return np.exp(logc + (0.5 * p - 1.0) * np.log(w) - 0.5 * (p + n) * np.log1p(w))


def ratio_moments_mpmath(k, n, c, dps=40):
    """(P(W < c), E[1/W; W > c], E[W; W < c], E[1/W^2; W > c]) for
    W = chi^2_k / chi^2_n, in mpmath at ``dps`` digits; the last entry is
    None for k <= 4.

    With T = W/(1+W) ~ Beta(a, b), a = k/2, b = n/2, and x = c/(1+c): the
    lower tail is x^a (1-x)^b / (a B(a, b)) 2F1(a+b, 1; a+1; x) and the
    upper tail the same with a and b (and x and 1-x) swapped, both sums of
    positive terms; E[W; W < c] is x^{a+1} 2F1(a+1, 2-b; a+2; x) /
    ((a+1) B(a, b)).
    """
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(k) / 2, mpmath.mpf(n) / 2
        c = mpmath.mpf(c)
        x = c / (1 + c)

        def lower(a, b):
            return (x ** a * (1 - x) ** b / (a * mpmath.beta(a, b))
                    * mpmath.hyp2f1(a + b, 1, a + 1, x))

        def upper(a, b):
            return (x ** a * (1 - x) ** b / (b * mpmath.beta(a, b))
                    * mpmath.hyp2f1(a + b, 1, b + 1, 1 - x))

        w_below = (x ** (a + 1) * mpmath.hyp2f1(a + 1, 2 - b, a + 2, x)
                   / ((a + 1) * mpmath.beta(a, b)))
        inv2 = n * (n + 2) / mpmath.mpf((k - 2) * (k - 4)) * upper(a - 2, b + 2) if k > 4 else None
        return lower(a, b), n / mpmath.mpf(k - 2) * upper(a - 1, b + 1), w_below, inv2


@functools.lru_cache(maxsize=None)
def truth_mpmath(name, p, n, lam, dps=40):
    """(risk, a, b) of the built-in rule ``name`` at noncentrality lam, as
    mpmath numbers at ``dps`` digits, without the Stein identity: a and b
    from the Judge & Bock mixtures of h = 1 - g, g = c/W for James-Stein and
    min(1, c/W) for the positive part, c = (p-2)/(n+2), in the plain form
    a = E[h^2]_{p+2}, b = E[h^2]_{p+4} - 2 E[h]_{p+2} + 1, whose
    cancellation the working precision absorbs; the risk is the trace
    p a + lam b. E_k[.] is the Poisson(lam/2) mixture over chi^2_{k+2j}, on
    the mode +- 15 standard deviations (the mass left out is below 1e-45).

    Per k, E[g] = P(W < cut) + c E[1/W; W > cut] and
    E[g^2] = P(W < cut) + c^2 E[1/W^2; W > cut] for W = chi^2_k / chi^2_n,
    with cut = c or 0, from the Beta law of W/(1+W) at x = cut/(1+cut): each
    tail is an ``mpmath.betainc``. The tails below the cut fall as k grows;
    from the first k where the largest, I_x(k/2 - 2, n/2 + 2), is below
    10^-(dps+10) by its first term and a geometric bound on the rest, they
    are dropped and the tails above the cut are 1, which spares the sums at
    lam = 1e6.
    """
    with mpmath.workdps(dps):
        c = mpmath.mpf(p - 2) / (n + 2)
        cut = c if name == "positive-part" else mpmath.mpf(0)
        x, half_n = cut / (1 + cut), mpmath.mpf(n) / 2
        # Poisson weights relative to the mode's, by P(j+1)/P(j) = mean/(j+1).
        mean, mode = mpmath.mpf(lam) / 2, int(lam / 2)
        half = int(15 * mpmath.sqrt(mean)) + 20 if lam else 0
        js = range(max(mode - half, 0), mode + half + 1)
        weights = {mode: mpmath.mpf(1)}
        for j in range(mode + 1, js.stop):
            weights[j] = weights[j - 1] * mean / j
        for j in range(mode - 1, js.start - 1, -1):
            weights[j] = weights[j + 1] * (j + 1) / mean
        weights = [weights[j] for j in js]
        total = mpmath.fsum(weights)
        h_moments, dropped = {}, cut == 0
        for k in sorted({p + 2 + 2 * j for j in js} | {p + 4 + 2 * j for j in js}):
            a = mpmath.mpf(k) / 2
            inv, inv2 = n / (2 * a - 2), n * (n + 2) / ((2 * a - 2) * (2 * a - 4))
            if not dropped:
                ratio = max(x, x * (a + half_n) / (a - 1))  # of the I_x(a-2, b+2) terms
                log_first = ((a - 2) * mpmath.log(x) + (half_n + 2) * mpmath.log1p(-x)
                             - mpmath.log(a - 2) - mpmath.log(mpmath.beta(a - 2, half_n + 2)))
                dropped = ratio < 1 and (log_first - mpmath.log1p(-ratio)
                                         < -(dps + 10) * mpmath.log(10))
            if dropped:
                g, g2 = c * inv, c * c * inv2
            else:
                below = mpmath.betainc(a, half_n, 0, x, regularized=True)
                g = below + c * inv * mpmath.betainc(a - 1, half_n + 1, x, 1, regularized=True)
                g2 = below + c * c * inv2 * mpmath.betainc(a - 2, half_n + 2, x, 1,
                                                           regularized=True)
            h_moments[k] = (1 - g, 1 - 2 * g + g2)

        def mixture(k0, which):
            return mpmath.fsum(w * h_moments[k0 + 2 * j][which]
                               for j, w in zip(js, weights)) / total

        a = mixture(p + 2, 1)
        b = mixture(p + 4, 1) - 2 * mixture(p + 2, 0) + 1
        return p * a + lam * b, a, b


def js_plus_alpha_quad(p, n):
    """Zero-signal risk reduction of the positive-part rule by quadrature.

    At zero signal W is a chi-square ratio with a known density, and the
    risk-reduction integrand has elementary branch values: 2p - (n-2)W
    below the kink k = (p-2)/(n+2) and (p-2)^2 / ((n+2) W) above it.
    """
    k = (p - 2.0) / (n + 2.0)

    def low(w):
        return (2.0 * p - (n - 2.0) * w) * ratio_chi2_density(w, p, n)

    def tail(v):
        if v <= 0.0:
            return 0.0
        w = k / v
        return (p - 2.0) ** 2 / ((n + 2.0) * w) * ratio_chi2_density(w, p, n) * k / (v * v)

    lo_val, _ = quad(low, 0.0, k, epsabs=1e-12, epsrel=1e-11, limit=200)
    hi_val, _ = quad(tail, 0.0, 1.0, epsabs=1e-12, epsrel=1e-11, limit=200)
    return lo_val + hi_val


def js_beta_moment_exact(order, p, n, j):
    """Exact moment-curve values for the constant (James-Stein) rule.

    With phi constant k, phi(u/v)/(u/v) = k v/u and the second-moment
    kernel is k(p+2) v/u, while E[v/u] = n/(p+2j-2) for independent
    chi-squares. So both curves are k E[v/u] times an elementary factor.
    """
    k = (p - 2.0) / (n + 2.0)
    mean_ratio = n / (p + 2.0 * j - 2.0)
    if order == 1:
        factor = 2.0 * (p - 1.0) - (p + 2.0 * j - 1.0) * (p + 2.0) / (p + 2.0 * j)
    else:
        factor = 2.0 - (p + 2.0) / (p + 2.0 * j)
    return k * mean_ratio * factor


def js_plus_beta_moment_quad(order, p, n, j):
    """Moment-curve value of the positive-part rule by direct quadrature.

    Integrates the defining kernel, built from phi = min(W, k) and its
    slope, against the density of W = U/V with U ~ chi^2_{p+2j}: on [0, k]
    in W and on (k, inf) through W = k/v, v in (0, 1).
    """
    k = (p - 2.0) / (n + 2.0)
    df = p + 2 * j

    def kernel(w):
        phi, dphi = (w, 1.0) if w < k else (k, 0.0)
        b = 4.0 * phi / w + (n + 2.0) * phi * phi / w - 4.0 * dphi - 4.0 * phi * dphi
        if order == 1:
            return 2.0 * (p - 1.0) * phi / w - (df - 1.0) / df * b
        return 2.0 * phi / w - b / df

    def low(w):
        return kernel(w) * ratio_chi2_density(w, df, n) if w > 0.0 else 0.0

    def tail(v):
        if v <= 0.0:
            return 0.0
        w = k / v
        return kernel(w) * ratio_chi2_density(w, df, n) * k / (v * v)

    lo_val, _ = quad(low, 0.0, k, epsabs=0.0, epsrel=1e-12, limit=400)
    hi_val, _ = quad(tail, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=400)
    return lo_val + hi_val


def moment_curve_kernel(order, phi, dphi, p, n, j):
    """Vectorized kernel of the moment curves at k = p + 2j, from phi and
    its slope alone: 2(p-1) phi/W - (k-1) b(W)/k for order 1 and
    2 phi/W - b(W)/k for order 2, with
    b(W) = 4 phi/W + (n+2) phi^2/W - 4 phi' - 4 phi phi'."""
    k = p + 2.0 * j

    def kernel(w):
        f, df = np.asarray(phi(w), dtype=float), np.asarray(dphi(w), dtype=float)
        b = 4.0 * f / w + (n + 2.0) * f * f / w - 4.0 * df - 4.0 * f * df
        if order == 1:
            return 2.0 * (p - 1.0) * f / w - (k - 1.0) / k * b
        return 2.0 * f / w - b / k

    return kernel


def ratio_mean_monte_carlo(f, k, n, reps, seed, chunk=262144):
    """Monte Carlo mean of f(U/V), U ~ chi^2_k and V ~ chi^2_n independent,
    with its standard error. It checks the quadrature path on rules that
    have no closed form."""
    g = np.random.default_rng(seed)
    total = total_sq = 0.0
    done = 0
    while done < reps:
        m = min(chunk, reps - done)
        vals = np.asarray(f(g.chisquare(k, m) / g.chisquare(n, m)), dtype=float)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
    mean = total / reps
    var = max(total_sq - reps * mean * mean, 0.0) / (reps - 1)
    return mean, float(np.sqrt(var / reps))


def true_risk_monte_carlo(fam, dims, lam, reps, gen, chunk=65536):
    """Monte Carlo risk of a shrinkage rule at noncentrality lam, with its
    standard error: the mean of p minus the risk-reduction integrand over
    draws of W = ||X||^2/S, X ~ N(theta, I_p), S ~ chi^2_n, drawn from the
    numpy Generator ``gen``."""
    p, n = dims.p, dims.n
    theta = np.sqrt(lam / p) * np.ones(p)
    total = total_sq = 0.0
    done = 0
    while done < reps:
        m = min(chunk, reps - done)
        x = theta + gen.standard_normal((m, p))
        s = gen.chisquare(n, m)
        w = np.einsum("ij,ij->i", x, x) / s
        phi = np.asarray(fam.phi(w), dtype=float)
        dphi = np.asarray(fam.phi_prime(w), dtype=float)
        vals = p - (2.0 * (p - 2.0) * phi / w - (n + 2.0) * phi * phi / w
                    + 4.0 * dphi + 4.0 * phi * dphi)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
    mean = total / reps
    var = max(total_sq - reps * mean * mean, 0.0) / (reps - 1)
    return mean, float(np.sqrt(var / reps))


def mse_matrix_monte_carlo(fam, theta, n, reps, gen, chunk=65536):
    """Dense Monte Carlo estimate of E[(delta - theta)(delta - theta)'] for
    delta = (1 - phi(W)/W) X, X ~ N(theta, I), S ~ chi^2_n, W = ||X||^2/S,
    with the entrywise standard errors, from the numpy Generator ``gen``."""
    theta = np.asarray(theta, dtype=float)
    p = theta.shape[0]
    acc = np.zeros((p, p))
    acc_sq = np.zeros((p, p))
    done = 0
    while done < reps:
        m = min(chunk, reps - done)
        x = theta + gen.standard_normal((m, p))
        s = gen.chisquare(n, m)
        w = np.einsum("ij,ij->i", x, x) / s
        d = (1.0 - np.asarray(fam.phi(w), dtype=float) / w)[:, None] * x - theta
        acc += d.T @ d
        acc_sq += (d * d).T @ (d * d)
        done += m
    mean = acc / reps
    var = np.maximum(acc_sq - reps * mean * mean, 0.0) / (reps - 1)
    return mean, np.sqrt(var / reps)


def quadratic_root(c):
    """Positive root of W(1+W) = c."""
    return 0.5 * (np.sqrt(1.0 + 4.0 * c) - 1.0)


def dense_quad_form(matrix, d):
    """d' M^{-1} d via a dense solve."""
    return float(d @ np.linalg.solve(matrix, d))


def g3_above_kink(p, n, w):
    """g3(w) of either built-in rule for w above the kink, to 40 digits.

    There phi is the constant c = (p-2)/(n+2) on all of [w, inf), so
    g2(w) = w^{n/2} int_w^inf t^{-n/2-1} 2c/t dt, which t = w/v turns into
    (2c/w) int_0^1 v^{n/2} dv, by mpmath quadrature; g3 = g2 + c^2/w.
    Returns an mpmath number.
    """
    with mpmath.workdps(40):
        c = mpmath.mpf(p - 2) / (n + 2)
        w = mpmath.mpf(w)
        tail = mpmath.quad(lambda v: v ** (mpmath.mpf(n) / 2), [0, 1])
        return (2 * c * tail + c * c) / w


def g_kernels_mpmath(name, p, n, w, dps=40):
    """(g1, g2, g3)(w) of a built-in rule, as mpmath numbers, straight from
    the definition g_h(w) = w^{n/2} int_w^inf t^{-n/2-1} h(t) dt with
    h1 = phi/t and h2 = 2(phi/t - phi'), and g3 = g2 + phi(w)^2/w.

    The James-Stein rule has phi = k = (p-2)/(n+2), exact here, and the
    positive-part rule phi = min(t, k). Either way each h is c t^b on at
    most two pieces, b in {0, -1}, whose integrals are elementary; each
    piece is summed in log space, so nothing over- or underflows at any
    (p, n, w).
    """
    with mpmath.workdps(dps):
        k = mpmath.mpf(p - 2) / (n + 2)
        w = mpmath.mpf(w)
        half_n = mpmath.mpf(n) / 2

        def transform(pieces):
            # sum of w^{n/2} int_lo^hi c t^{b - n/2 - 1} dt; hi = inf adds 0
            total = mpmath.mpf(0)
            for lo, hi, c, b in pieces:
                if c == 0 or lo >= hi:
                    continue
                e = b - half_n
                at = lambda t: mpmath.exp(e * mpmath.log(t) + half_n * mpmath.log(w))
                total += c * ((0 if hi == mpmath.inf else at(hi)) - at(lo)) / e
            return total

        if name == "james-stein":
            phi = k
            h1 = [(w, mpmath.inf, k, -1)]
            h2 = [(w, mpmath.inf, 2 * k, -1)]
        else:
            phi, cut = min(w, k), max(w, k)
            h1 = [(w, cut, 1, 0), (cut, mpmath.inf, k, -1)]
            h2 = [(cut, mpmath.inf, 2 * k, -1)]  # phi/t - phi' = 0 below the kink
        g2 = transform(h2)
        return transform(h1), g2, g2 + phi * phi / w


def observation_draws(rng, p, n, count):
    """``count`` pairs (x, S), x of length p and S ~ chi^2_n, whose W = ||x||^2/S
    spans about five decades."""
    return [(rng.standard_normal(p) * np.exp(rng.uniform(-3.0, 2.0)), float(rng.chisquare(n)))
            for _ in range(count)]
