"""Chi-square and F special functions plus replayable random streams.

Densities are evaluated in log space so large degrees of freedom and large
arguments do not overflow. The F quantile is obtained by inverting the
regularized incomplete beta representation of the CDF; the same
representation gives the partial moments of a chi-square ratio in closed
form (``ratio_partial_moments``) and the mean of any function of that
ratio as a Beta-weighted quadrature (``ratio_expectation``). All random
draws come
from counter-based Philox streams keyed by (seed, stream_id): the same key
always reproduces the same draws, no matter which thread or process asks for
them, so experiments can be sharded arbitrarily without changing a single
number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betainc, betaincc, betaln, gammaln, hyp2f1

__all__ = [
    "RngStream",
    "chi2_pdf",
    "noncentral_chi2_pdf",
    "f_quantile",
    "ratio_partial_moments",
    "ratio_expectation",
    "sample_normal_vector",
    "sample_chi2",
]

_MASK64 = (1 << 64) - 1

# A series term below this fraction of the running sum stops the summation.
_REL_TERM_CUTOFF = 1e-15


def _splitmix64(z: int) -> int:
    """splitmix64 finalizer; spreads structured ids over all 64 bits."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Immutable key (seed, stream_id) naming a counter-based random stream.

    ``generator()`` always starts from the beginning of the stream, so a
    given key is a pure name for a fixed draw sequence. Distinct stream ids
    under one seed give statistically independent sequences (Philox keyed
    by the 128-bit concatenation), which makes results independent of
    thread scheduling: shard work by stream id, not by shared state.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = ((self.seed & _MASK64) << 64) | (self.stream_id & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derived independent stream: same seed, scrambled stream id."""
        mixed = _splitmix64(_splitmix64(self.stream_id & _MASK64) ^ (index & _MASK64))
        return RngStream(self.seed, mixed)


def _check_df(k, name: str = "k") -> int:
    if int(k) != k or k < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {k!r}")
    return int(k)


def _chi2_logpdf(x: float, k: int) -> float:
    """log density of chi-square with k df at x > 0."""
    half = 0.5 * k
    return (half - 1.0) * np.log(x) - 0.5 * x - half * np.log(2.0) - gammaln(half)


def chi2_pdf(x, k):
    """Central chi-square density with k degrees of freedom.

    Accepts scalars or arrays for x. Computed as
    exp((k/2-1) log x - x/2 - (k/2) log 2 - lgamma(k/2)), which stays finite
    far into the tails.
    """
    k = _check_df(k)
    scalar = np.ndim(x) == 0
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("chi-square density requires x >= 0")
    half = 0.5 * k
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp((half - 1.0) * np.log(x) - 0.5 * x - half * np.log(2.0) - gammaln(half))
    if k == 2:
        # (k/2 - 1) log x is 0 * (-inf) at the origin; the limit is 1/2.
        out = np.where(x == 0.0, 0.5, out)
    return float(out) if scalar else out


def noncentral_chi2_pdf(x, k, lam):
    """Noncentral chi-square density: Poisson mixture of central densities.

    The mixture is summed outward from the modal Poisson index; each
    direction stops once consecutive terms fall below 1e-15 of the running
    sum, which keeps the discarded relative mass under 1e-12.
    """
    k = _check_df(k)
    if lam < 0:
        raise ValueError("noncentrality must be nonnegative")
    if np.ndim(x) != 0:
        return np.array([noncentral_chi2_pdf(xi, k, lam) for xi in np.asarray(x, dtype=float)])
    x = float(x)
    if x < 0:
        raise ValueError("chi-square density requires x >= 0")
    if lam == 0.0:
        return chi2_pdf(x, k)
    if x == 0.0:
        # Only the j = 0 mixture term is nonzero at the origin.
        return float(np.exp(-0.5 * lam) * chi2_pdf(0.0, k))

    log_half_lam = np.log(0.5 * lam)

    def term(j: int) -> float:
        return float(np.exp(-0.5 * lam + j * log_half_lam - gammaln(j + 1) + _chi2_logpdf(x, k + 2 * j)))

    j_mode = int(0.5 * lam)
    total = term(j_mode)
    # <= so that terms that underflow to exactly zero count as converged
    # even while the running sum is still zero (deep in the tails).
    j, quiet = j_mode + 1, 0
    while quiet < 2:
        t = term(j)
        total += t
        quiet = quiet + 1 if t <= _REL_TERM_CUTOFF * total else 0
        j += 1
    j, quiet = j_mode - 1, 0
    while j >= 0 and quiet < 2:
        t = term(j)
        total += t
        quiet = quiet + 1 if t <= _REL_TERM_CUTOFF * total else 0
        j -= 1
    return float(total)


@lru_cache(maxsize=64)
def f_quantile(q: float, d1: int, d2: int) -> float:
    """Quantile of the F distribution with (d1, d2) degrees of freedom.

    Inverts CDF(x) = betainc(d1/2, d2/2, d1 x / (d1 x + d2)) by bracketed
    bisection, tightened until the CDF at the returned point is within
    1e-12 of q. Cached, since every confidence set at one level and (p, n)
    uses the same quantile.
    """
    d1 = _check_df(d1, "d1")
    d2 = _check_df(d2, "d2")
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    a, b = 0.5 * d1, 0.5 * d2

    def cdf(x: float) -> float:
        y = d1 * x / (d1 * x + d2)
        return float(betainc(a, b, y))

    hi = 1.0
    while cdf(hi) < q:
        hi *= 2.0
        if hi > 1e14:
            raise RuntimeError("failed to bracket the F quantile")
    lo = 0.0
    for _ in range(240):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(hi, 1.0):
            break
    x = 0.5 * (lo + hi)
    if abs(cdf(x) - q) > 1e-10:
        raise RuntimeError(f"F quantile inversion stalled at x={x} (CDF error {cdf(x) - q:.3e})")
    return x


@lru_cache(maxsize=256)
def ratio_partial_moments(k: int, n: int, c: float):
    """(P(W < c), E[1/W; W > c], E[W; W < c]) for W = U/V, with U ~ chi^2_k
    and V ~ chi^2_n independent, k > 2 and a cut c >= 0.

    W/(1+W) is Beta(k/2, n/2), so with x = c/(1+c), a = k/2, b = n/2:
    P(W < c) = I_x(a, b), E[1/W; W > c] = n/(k-2) (1 - I_x(a-1, b+1)), and
    E[W; W < c] = B_x(a+1, b-1)/B(a, b) = x^{a+1} 2F1(a+1, 2-b; a+2; x) /
    ((a+1) B(a, b)). The hypergeometric form of the incomplete beta stays
    valid for b - 1 <= 0, that is n = 1 and n = 2. Cached, since both
    moment curves ask for the same (k, n, c) at every j.
    """
    k = _check_df(k)
    n = _check_df(n, "n")
    if k <= 2:
        raise ValueError("E[1/W] needs k > 2")
    if not c >= 0:
        raise ValueError("the cut c must be nonnegative")
    a, b = 0.5 * k, 0.5 * n
    x = c / (1.0 + c)
    below = float(betainc(a, b, x))
    inv_above = n / (k - 2.0) * float(betaincc(a - 1.0, b + 1.0, x))
    if x == 0.0:
        return below, inv_above, 0.0
    log_scale = (a + 1.0) * np.log(x) - np.log(a + 1.0) - betaln(a, b)
    w_below = float(np.exp(log_scale) * hyp2f1(a + 1.0, 2.0 - b, a + 2.0, x))
    return below, inv_above, w_below


def ratio_expectation(f, k: int, n: int) -> float:
    """E[f(W)] for W = U/V, with U ~ chi^2_k and V ~ chi^2_n independent.

    T = W/(1+W) is Beta(k/2, n/2), so the mean is one integral over
    t in (0, 1) of f(t/(1-t)) against t^{k/2-1} (1-t)^{n/2-1}, divided by
    B(k/2, n/2), to a relative 1e-10 or an absolute 1e-13, whichever is
    looser. The algebraic weight is left to the quadrature rule, which
    absorbs the endpoint singularities; adaptive subdivision handles kinks
    and jumps of f. ``f`` takes one float W > 0 and returns a number. The
    rule also samples the endpoints, W = 0 and W = infinity, where f need
    not be defined; they count as 0.
    """
    # Imported here: only custom families reach the quadrature, and
    # scipy.integrate is about half the import cost of the package.
    from scipy.integrate import quad

    k = _check_df(k)
    n = _check_df(n, "n")
    a, b = 0.5 * k, 0.5 * n

    def integrand(t: float) -> float:
        if not 0.0 < t < 1.0:
            return 0.0
        return float(f(t / (1.0 - t)))

    norm = float(np.exp(betaln(a, b)))
    result = quad(integrand, 0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0),
                  epsabs=1e-13 * norm, epsrel=1e-10, limit=200, full_output=1)
    if len(result) > 3:
        raise RuntimeError(f"ratio expectation did not converge (k={k}, n={n}): {result[3]}")
    return result[0] / norm


def sample_normal_vector(dims, theta, sigma2: float, rng: RngStream) -> np.ndarray:
    """One draw of a p-variate normal with mean theta and covariance sigma2 I.

    ``dims`` only needs a ``p`` attribute. The draw is a pure function of the
    stream key: calling twice with the same RngStream repeats the vector.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dims.p,):
        raise ValueError(f"theta must have length p={dims.p}, got shape {theta.shape}")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    g = rng.generator()
    return theta + np.sqrt(sigma2) * g.standard_normal(dims.p)


def sample_chi2(n: int, sigma2: float, rng: RngStream) -> float:
    """One draw of sigma2 times a chi-square variate with n df.

    Deterministic in the stream key, like ``sample_normal_vector``. Use
    distinct stream ids for draws that must be independent.
    """
    n = _check_df(n, "n")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    g = rng.generator()
    return float(sigma2 * g.chisquare(n))
