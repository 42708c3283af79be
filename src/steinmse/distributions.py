"""Chi-square and F special functions plus replayable random streams.

The F quantile is obtained by inverting the regularized incomplete beta
representation of the CDF; the same representation gives the partial
moments of a chi-square ratio in closed form (``ratio_partial_moments``,
``ratio_inverse_square_above``) and the mean of any function of that ratio
as a Beta-weighted quadrature (``ratio_expectation``). A noncentral
chi-square is a Poisson mixture of central ones; ``poisson_weights`` gives
the mixture weights. All random draws come from counter-based Philox
streams keyed by (seed, stream_id): the same key always reproduces the
same draws, no matter which thread or process asks for them, so
experiments can be sharded arbitrarily without changing a single number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betainc, betaincc, betaln, gammaln, hyp2f1

__all__ = [
    "RngStream",
    "f_quantile",
    "poisson_weights",
    "ratio_partial_moments",
    "ratio_inverse_square_above",
    "ratio_expectation",
]

_MASK64 = (1 << 64) - 1


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


def _check_df(k, name: str = "k") -> int:
    if int(k) != k or k < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {k!r}")
    return int(k)


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


def ratio_inverse_square_above(k: int, n: int, c: float) -> float:
    """E[1/W^2; W > c] for W = U/V, with U ~ chi^2_k and V ~ chi^2_n
    independent, k > 4 and a cut c >= 0.

    With x = c/(1+c), it is n(n+2)/((k-2)(k-4)) (1 - I_x(k/2 - 2, n/2 + 2)),
    by the same Beta law of W/(1+W) as ``ratio_partial_moments``.
    """
    k = _check_df(k)
    n = _check_df(n, "n")
    if k <= 4:
        raise ValueError("E[1/W^2] needs k > 4")
    if not c >= 0:
        raise ValueError("the cut c must be nonnegative")
    x = c / (1.0 + c)
    tail = float(betaincc(0.5 * k - 2.0, 0.5 * n + 2.0, x))
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
    log_w = j * math.log(mean) - mean - gammaln(j + 1.0)
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

    norm = float(np.exp(betaln(a, b)))
    result = quad(integrand, 0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0),
                  epsabs=1e-13 * norm, epsrel=1e-10, limit=200, full_output=1)
    if len(result) > 3:
        raise RuntimeError(f"ratio expectation did not converge (k={k}, n={n}): {result[3]}")
    return result[0] / norm
