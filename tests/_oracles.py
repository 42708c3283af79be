"""Independent oracles used to derive expected values in the tests.

Each oracle recomputes its target along a route that shares no code with
the library path it checks: elementary closed forms, direct quadrature,
dense linear algebra, or exact moment identities for chi-square ratios.
"""

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


def observation_draws(rng, p, n, count):
    """``count`` pairs (x, S), x of length p and S ~ chi^2_n, whose W = ||x||^2/S
    spans about five decades."""
    return [(rng.standard_normal(p) * np.exp(rng.uniform(-3.0, 2.0)), float(rng.chisquare(n)))
            for _ in range(count)]
