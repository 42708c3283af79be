"""Chi-square and F special functions plus replayable random streams.

The F quantile is obtained by inverting the regularized incomplete beta
representation of the CDF; the same representation gives the partial
moments of a chi-square ratio in closed form (``ratio_partial_moments``,
``ratio_inverse_square_above``) and the mean of any function of that ratio
as a Beta-weighted quadrature (``ratio_expectation``). A noncentral
chi-square is a Poisson mixture of central ones; ``poisson_weights`` gives
the mixture weights. The incomplete beta and log-beta kernels are the
module's own (``_betainc_pair``, ``_log_beta``), built on ``math.lgamma``
and a continued fraction, so the closed forms need no scipy; only the
quadrature imports it, lazily. All random draws come from counter-based
Philox streams keyed by (seed, stream_id): the same key always reproduces
the same draws, no matter which thread or process asks for them, so
experiments can be sharded arbitrarily without changing a single number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "RngStream",
    "f_quantile",
    "poisson_weights",
    "ratio_partial_moments",
    "ratio_inverse_square_above",
    "ratio_expectation",
]

@dataclass(frozen=True)
class RngStream:
    """Immutable key (seed, stream_id) naming a counter-based random stream.

    ``generator()`` always starts from the beginning of the stream, so a
    given key is a pure name for a fixed draw sequence. Distinct stream ids
    under one seed give statistically independent sequences (Philox keyed
    by the 128-bit concatenation), which makes results independent of
    thread scheduling: shard work by stream id, not by shared state.
    Both fields must be integers in [0, 2**64), so no two keys alias.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if int(value) != value or not 0 <= value < 1 << 64:
                raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = (int(self.seed) << 64) | int(self.stream_id)
        return np.random.Generator(np.random.Philox(key=key))


def _check_df(k, name: str = "k") -> int:
    if int(k) != k or k < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {k!r}")
    return int(k)


_MAX_TERMS = 100_000
_TINY = 1e-300
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _lgamma_remainder(a: float) -> float:
    """lgamma(a) - ((a - 1/2) log a - a + log(2 pi)/2), for a > 0.

    From the Stirling series sum_i B_2i / (2i (2i-1) a^(2i-1)) for a >= 10
    (seven terms; truncation error below 1e-16), so no large logarithms
    cancel; from ``math.lgamma`` below that.
    """
    if a < 10.0:
        return math.lgamma(a) - (a - 0.5) * math.log(a) + a - _HALF_LOG_2PI
    r = 1.0 / (a * a)
    return (1.0 / 12.0 + r * (-1.0 / 360.0 + r * (1.0 / 1260.0 + r * (-1.0 / 1680.0 + r * (
        1.0 / 1188.0 + r * (-691.0 / 360360.0 + r / 156.0)))))) / a


def _beta_front(a: float, b: float, x: float) -> float:
    """x^a (1-x)^b / B(a, b) for a, b > 0 and 0 < x < 1.

    Written about the mean mu = a/(a+b) as
    (x/mu)^a ((1-x)/(1-mu))^b sqrt(ab / (2 pi (a+b))) exp(R(a+b) - R(a) - R(b)),
    with R the Stirling remainder, so the logarithms stay small near the
    mean and none of size a log a has to cancel.
    """
    s = a + b
    mu, nu = a / s, b / s
    d = x - mu
    log_x = math.log1p(d / mu) if abs(d) < 0.5 * mu else math.log(x / mu)
    log_1mx = math.log1p(-d / nu) if abs(d) < 0.5 * nu else math.log((1.0 - x) / nu)
    return math.exp(a * log_x + b * log_1mx + 0.5 * math.log(a * nu / (2.0 * math.pi))
                    + _lgamma_remainder(s) - _lgamma_remainder(a) - _lgamma_remainder(b))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * CF,
    by the modified Lentz method (a zero denominator becomes _TINY); it
    converges fast for x < (a+1)/(a+b+2). Raises RuntimeError if it has not
    converged after _MAX_TERMS steps."""
    apb = a + b
    c, d = 1.0, 1.0 / ((1.0 - apb * x / (a + 1.0)) or _TINY)
    h = d
    for m in range(1, _MAX_TERMS):
        a2m = a + 2 * m
        num = m * (b - m) * x / ((a2m - 1.0) * a2m)
        d = 1.0 / ((1.0 + num * d) or _TINY)
        c = (1.0 + num / c) or _TINY
        h *= c * d
        num = -(a + m) * (apb + m) * x / (a2m * (a2m + 1.0))
        d = 1.0 / ((1.0 + num * d) or _TINY)
        c = (1.0 + num / c) or _TINY
        step = c * d
        h *= step
        if abs(step - 1.0) < 1e-16:
            return h
    raise RuntimeError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def _betainc_pair(a: float, b: float, x: float):
    """(I_x(a, b), 1 - I_x(a, b)) for a, b > 0 and 0 <= x <= 1.

    The fraction runs on the side of the mean where it converges fast:
    for I_x(a, b) itself below (a+1)/(a+b+2), and for
    1 - I_x(a, b) = I_{1-x}(b, a) above. That side's value is returned as
    computed and the other is formed as one minus it, so a small tail
    keeps its relative accuracy. A prefactor that underflows makes that
    side 0 without running the fraction.
    """
    if x <= 0.0:
        return 0.0, 1.0
    if x >= 1.0:
        return 1.0, 0.0
    return _betainc_split(a, b, x, _beta_front(a, b, x))


def _betainc_split(a: float, b: float, x: float, front: float):
    """``_betainc_pair`` for 0 < x < 1, given front = x^a (1-x)^b / B(a, b)."""
    if x < (a + 1.0) / (a + b + 2.0):
        lower = front * _beta_fraction(a, b, x) / a if front else 0.0
        return lower, 1.0 - lower
    upper = front * _beta_fraction(b, a, 1.0 - x) / b if front else 0.0
    return 1.0 - upper, upper


@lru_cache(maxsize=64)
def f_quantile(q: float, d1: int, d2: int) -> float:
    """Quantile of the F distribution with (d1, d2) degrees of freedom.

    Inverts CDF(x) = I_y(d1/2, d2/2), y = d1 x / (d1 x + d2), by bracketed
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
        return _betainc_pair(a, b, y)[0]

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
    and V ~ chi^2_n independent, k > 2 and a cut 0 <= c < 2**53.

    W/(1+W) is Beta(k/2, n/2), so with x = c/(1+c), a = k/2, b = n/2:
    P(W < c) = I_x(a, b), E[1/W; W > c] = n/(k-2) (1 - I_x(a-1, b+1)), and
    E[W; W < c] = B_x(a+1, b-1)/B(a, b). The first two share one continued
    fraction through I_x(a-1, b+1) = I_x(a, b) + x^{a-1} (1-x)^b / (b B(a, b)).
    For n > 2 the third is a/(b-1) I_x(a+1, b-1). For n = 1 and n = 2,
    where b - 1 <= 0 and I_x(a+1, b-1) is undefined, the unregularized
    B_x(a+1, b-1) = x^{a+1} (1-x)^{b-1} / (a+1) * CF still holds, with CF
    the same continued fraction (DLMF §8.17(v)), so one incomplete-beta
    algorithm serves every n. Cached, since both moment curves ask for the
    same (k, n, c) at every j.
    """
    k = _check_df(k)
    n = _check_df(n, "n")
    if k <= 2:
        raise ValueError("E[1/W] needs k > 2")
    if not 0.0 <= c < 2.0 ** 53:
        raise ValueError("the cut c must lie in [0, 2**53), where c/(1+c) < 1")
    a, b = 0.5 * k, 0.5 * n
    x = c / (1.0 + c)
    if x == 0.0:
        return 0.0, n / (k - 2.0), 0.0
    # One prefactor x^a (1-x)^b / B(a, b) serves all three incomplete betas;
    # the shifted ones differ from it by ratios of powers and beta functions.
    front = _beta_front(a, b, x)
    # The fraction runs for the lower tail of (a, b) below its switch point
    # and for the upper tail of (a-1, b+1) above it; either way the gap
    # between the two is added to a tail, never subtracted from one.
    gap = front / (b * x)
    if x < (a + 1.0) / (a + b + 2.0):
        below = _betainc_split(a, b, x, front)[0]
        above = 1.0 - (below + gap)
    else:
        above = _betainc_split(a - 1.0, b + 1.0, x, gap * (1.0 - x) * (a - 1.0))[1]
        below = 1.0 - (above + gap)
    inv_above = n / (k - 2.0) * above
    if n > 2:
        front_next = front * x * (b - 1.0) / ((1.0 - x) * a)
        return below, inv_above, a / (b - 1.0) * _betainc_split(a + 1.0, b - 1.0, x, front_next)[0]
    below_moment = front * x / ((1.0 - x) * (a + 1.0)) * _beta_fraction(a + 1.0, b - 1.0, x)
    return below, inv_above, below_moment


def ratio_inverse_square_above(k: int, n: int, c: float) -> float:
    """E[1/W^2; W > c] for W = U/V, with U ~ chi^2_k and V ~ chi^2_n
    independent, k > 4 and a finite cut c >= 0.

    With x = c/(1+c), it is n(n+2)/((k-2)(k-4)) (1 - I_x(k/2 - 2, n/2 + 2)),
    by the same Beta law of W/(1+W) as ``ratio_partial_moments``.
    """
    k = _check_df(k)
    n = _check_df(n, "n")
    if k <= 4:
        raise ValueError("E[1/W^2] needs k > 4")
    if not 0.0 <= c < math.inf:
        raise ValueError("the cut c must be finite and nonnegative")
    x = c / (1.0 + c)
    tail = _betainc_pair(0.5 * k - 2.0, 0.5 * n + 2.0, x)[1]
    return n * (n + 2.0) / ((k - 2.0) * (k - 4.0)) * tail


def poisson_weights(mean: float):
    """(j0, w) with w[i] = P(N = j0 + i) for N ~ Poisson(mean).

    The log probabilities j log(mean) - mean - lgamma(j + 1) are formed on
    a window of 9 sqrt(mean) + 40 indices either side of the mode; the
    ends below 1e-17 of the modal term are dropped and the rest are scaled
    to sum to one. The mass left out is below 1e-15, and the number of
    terms grows like sqrt(mean).
    """
    if not 0.0 <= mean < math.inf:
        raise ValueError(f"the Poisson mean must be finite and nonnegative, got {mean!r}")
    if mean == 0.0:
        return 0, np.ones(1)
    mode = int(mean)
    half = int(9.0 * math.sqrt(mean)) + 40
    j = np.arange(max(mode - half, 0), mode + half + 1, dtype=float)
    log_w = j * math.log(mean) - mean - np.array([math.lgamma(v + 1.0) for v in j.tolist()])
    log_w -= log_w.max()
    keep = np.flatnonzero(log_w >= math.log(1e-17))
    w = np.exp(log_w[keep[0]:keep[-1] + 1])
    return int(j[keep[0]]), w / w.sum()


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

    norm = math.exp(_log_beta(a, b))
    result = quad(integrand, 0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0),
                  epsabs=1e-13 * norm, epsrel=1e-10, limit=200, full_output=1)
    if len(result) > 3:
        raise RuntimeError(f"ratio expectation did not converge (k={k}, n={n}): {result[3]}")
    return result[0] / norm
