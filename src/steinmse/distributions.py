"""Chi-square and F special functions plus replayable random streams.

The F quantile is obtained by inverting the regularized incomplete beta
representation of the CDF; the same representation gives the partial
moments of a chi-square ratio in closed form, at one k
(``ratio_partial_moments``) or as arrays over k = k0 + 2l from one
incomplete-beta ladder per moment (``ratio_moment_ladder``), and the mean of
any function of that ratio as a Beta-weighted quadrature
(``ratio_expectation``). A noncentral chi-square is a Poisson mixture of
central ones; ``poisson_weights`` gives the mixture weights. Every kernel is
the module's own, on numpy alone: the incomplete beta and log-beta
(``_betainc_pair``, ``_log_beta``) from ``math.lgamma`` and a continued
fraction, and the package's one quadrature, adaptive tanh-sinh
(``_integrate``). All random draws come from counter-based Philox streams
keyed by (seed, stream_id): the same key always reproduces the same draws,
no matter which thread or process asks for them, so experiments can be
sharded arbitrarily without changing a single number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._rootfind import bracketed_root

__all__ = [
    "RngStream",
    "f_quantile",
    "poisson_weights",
    "ratio_partial_moments",
    "ratio_moment_ladder",
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
    return _stirling_series(a)


def _stirling_series(a):
    """The Stirling series of ``_lgamma_remainder``, for a float or an array a >= 10."""
    r = 1.0 / (a * a)
    return (1.0 / 12.0 + r * (-1.0 / 360.0 + r * (1.0 / 1260.0 + r * (-1.0 / 1680.0 + r * (
        1.0 / 1188.0 + r * (-691.0 / 360360.0 + r / 156.0)))))) / a


def _lgamma_remainders(a: np.ndarray) -> np.ndarray:
    """``_lgamma_remainder`` over an array a > 0."""
    out = _stirling_series(np.maximum(a, 10.0))
    small = a < 10.0
    out[small] = [_lgamma_remainder(v) for v in a[small].tolist()]
    return out


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


def _beta_fronts(a: np.ndarray, b: float, x: float) -> np.ndarray:
    """``_beta_front`` over an array of a > 0 at one b > 0 and 0 < x < 1."""
    s = a + b
    mu, nu = a / s, b / s
    d = x - mu
    log_x = np.where(abs(d) < 0.5 * mu, np.log1p(d / mu), np.log(x / mu))
    log_1mx = np.where(abs(d) < 0.5 * nu, np.log1p(-d / nu), np.log((1.0 - x) / nu))
    return np.exp(a * log_x + b * log_1mx + 0.5 * np.log(a * nu / (2.0 * math.pi))
                  + _lgamma_remainders(s) - _lgamma_remainders(a) - _lgamma_remainder(b))


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

    Inverts CDF(x) = I_y(d1/2, d2/2), y = d1 x / (d1 x + d2), with the
    package's one root solver from [0, 1], doubled up to 2**60. A CDF near
    1 keeps only eps/(1 - q) of the upper tail, so for q > 1/2 that root
    stands only if the tail I_{1-y}(d2/2, d1/2), with 1 - y = d2/(d1 x + d2)
    formed directly, is within 1e-13 (relative) of 1 - q, which is exact
    there; otherwise the tail itself is matched to 1 - q. A quantile beyond
    2**60 (only d2 = 1 reaches one) or a CDF more than 1e-10 from q raises
    RuntimeError. Cached, since every confidence set at one level and
    (p, n) uses the same quantile.
    """
    d1 = _check_df(d1, "d1")
    d2 = _check_df(d2, "d2")
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    a, b = 0.5 * d1, 0.5 * d2

    def cdf_miss(x: float) -> float:
        y = d1 * x / (d1 * x + d2)
        return _betainc_pair(a, b, y)[0] - q

    def tail_miss(x: float) -> float:  # 1 - CDF(x) = I_{1-y}(d2/2, d1/2)
        return _betainc_pair(b, a, d2 / (d1 * x + d2))[0] - (1.0 - q)

    x = bracketed_root(cdf_miss, 0.0, 1.0)
    if q > 0.5 and (x is None or abs(tail_miss(x)) > 1e-13 * (1.0 - q)):
        x = bracketed_root(tail_miss, 0.0, 1.0)
    if x is None:
        raise RuntimeError(f"the F({d1}, {d2}) quantile at q={q} lies beyond 2**60, where "
                           "y = d1 x/(d1 x + d2) rounds to 1")
    if abs(cdf_miss(x)) > 1e-10:
        raise RuntimeError(f"F quantile inversion stalled at x={x} (CDF error {cdf_miss(x):.3e})")
    return x


def _check_moment_args(k: int, n: int, c: float):
    k = _check_df(k)
    n = _check_df(n, "n")
    if k <= 2:
        raise ValueError("E[1/W] needs k > 2")
    if not 0.0 <= c < 2.0 ** 53:
        raise ValueError("the cut c must lie in [0, 2**53), where c/(1+c) < 1")
    return k, n


@lru_cache(maxsize=512)
def ratio_partial_moments(k: int, n: int, c: float):
    """(P(W < c), E[1/W; W > c], E[W; W < c]) for W = U/V, with U ~ chi^2_k
    and V ~ chi^2_n independent, k > 2 and a cut 0 <= c < 2**53.

    W/(1+W) is Beta(k/2, n/2), so with x = c/(1+c), a = k/2, b = n/2:
    P(W < c) = I_x(a, b), E[1/W; W > c] = n/(k-2) (1 - I_x(a-1, b+1)), and
    E[W; W < c] = B_x(a+1, b-1)/B(a, b) (``_partial_tails``). Cached: the
    beta_j scan of ``matrix_constants`` asks for each (k, n, c) once per
    moment curve, and every ``matrix_constants`` call for the same family
    and dims repeats the scan. The cache holds 512 keys, more than the 424
    that ``shrinkage_constants`` and ``matrix_constants`` ask for over the
    four table dims and both built-in families, so a repeat of that cycle
    recomputes nothing. ``ratio_moment_ladder`` gives the same bits at its
    block boundaries without this cache.
    """
    k, n = _check_moment_args(k, n, c)
    x = c / (1.0 + c)
    if x == 0.0:
        return 0.0, n / (k - 2.0), 0.0
    below, above, w_below = _partial_tails(k, n, x)
    return below, n / (k - 2.0) * above, w_below


def _partial_tails(k: int, n: int, x: float):
    """(I_x(a, b), 1 - I_x(a-1, b+1), B_x(a+1, b-1)/B(a, b)) for a = k/2 > 1,
    b = n/2 and 0 < x < 1, from two continued fractions.

    The first two share one fraction through
    I_x(a-1, b+1) = I_x(a, b) + x^{a-1} (1-x)^b / (b B(a, b)). For n > 2 the
    third is a/(b-1) I_x(a+1, b-1). For n = 1 and n = 2, where b - 1 <= 0
    and I_x(a+1, b-1) is undefined, the unregularized
    B_x(a+1, b-1) = x^{a+1} (1-x)^{b-1} / (a+1) * CF still holds, with CF
    the same continued fraction (DLMF §8.17(v)), so one incomplete-beta
    algorithm serves every n.
    """
    a, b = 0.5 * k, 0.5 * n
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
    if n > 2:
        front_next = front * x * (b - 1.0) / ((1.0 - x) * a)
        return below, above, a / (b - 1.0) * _betainc_split(a + 1.0, b - 1.0, x, front_next)[0]
    return below, above, front * x / ((1.0 - x) * (a + 1.0)) * _beta_fraction(a + 1.0, b - 1.0, x)


# Steps per block of ``ratio_moment_ladder``: one continued fraction per
# moment at every block boundary, and at most this many ladder steps between.
_LADDER_BLOCK = 64


def ratio_moment_ladder(k0: int, n: int, c: float, steps, inverse_square: bool = False):
    """Arrays of (P(W < c), E[1/W; W > c], E[W; W < c], E[1/W^2; W > c]) over
    k = k0 + 2l for l in ``steps`` (nonnegative integers), with W = U/V,
    U ~ chi^2_k and V ~ chi^2_n independent, k0 > 2 and 0 <= c < 2**53. The
    last is None unless ``inverse_square``, which needs k0 > 4.

    Each moment is an incomplete-beta ladder in a = k/2 at fixed b = n/2 and
    x = c/(1+c) (DLMF §8.17(iv)). With F(a) = x^a (1-x)^b / B(a, b):
    P(W < c) = I_x(a, b) falls by F(a)/a from a to a + 1;
    E[1/W; W > c] = n/(k-2) (1 - I_x(a-1, b+1)), whose tail grows by
    F(a) (1-x)/(x b); E[W; W < c]/a falls by F(a) x / ((1-x) a (a+1)); and
    E[1/W^2; W > c] = n(n+2)/((k-2)(k-4)) (1 - I_x(a-2, b+2)), whose tail
    grows by F(a) ((1-x)/x)^2 (a-1)/(b(b+1)). The F(a) are formed directly
    (``_beta_fronts``); a running product of their ratios overflows.

    The steps are cut into blocks of ``_LADDER_BLOCK`` from l = 0. At each
    block boundary the moments come from the continued fractions of
    ``ratio_partial_moments``, with its bits, and inside a block each ladder
    runs from a boundary in the direction in which its terms add: the tails
    below c down from the block's top, the tails above c up from its bottom.
    So a value depends on (k0, n, c, l) alone, not on the other steps asked
    for. At c = 0 the moments are the closed forms 0, n/(k-2), 0 and
    n(n+2)/((k-2)(k-4)).
    """
    k0, n = _check_moment_args(k0, n, c)
    if inverse_square and k0 <= 4:
        raise ValueError("E[1/W^2] needs k > 4")
    steps = np.asarray(steps, dtype=np.int64)
    if steps.ndim != 1 or np.any(steps < 0):
        raise ValueError("steps must be a 1-D array of nonnegative integers")
    k = k0 + 2.0 * steps
    x = c / (1.0 + c)
    if x == 0.0:
        inv2 = n * (n + 2.0) / ((k - 2.0) * (k - 4.0)) if inverse_square else None
        return np.zeros(k.shape), n / (k - 2.0), np.zeros(k.shape), inv2
    size, b = _LADDER_BLOCK, 0.5 * n
    block, col = np.divmod(steps, size)
    inside = col > 0
    # The blocks a ladder runs in, and the boundaries it or a step needs
    # (sets, since np.unique imports numpy.ma, 6 ms of a cold start).
    rows = np.array(sorted(set(block[inside].tolist())), dtype=np.int64)
    row_of = np.searchsorted(rows, block[inside])
    ends = np.array(sorted(set(block[~inside].tolist() + rows.tolist() + (rows + 1).tolist())),
                    dtype=np.int64)
    kb = k0 + 2 * size * ends
    anchors = np.array([_partial_tails(kk, n, x) + (
        _betainc_pair(0.5 * kk - 2.0, b + 2.0, x)[1] if inverse_square else 0.0,)
        for kk in kb.tolist()]).reshape(-1, 4)
    # (P(W < c), 1 - I_x(a-1, b+1), E[W; W < c], 1 - I_x(a-2, b+2)) at every step
    tails = anchors[np.searchsorted(ends, block)]
    if rows.size:
        bottom, cols = np.searchsorted(ends, rows), col[inside]
        a = 0.5 * k0 + (size * rows)[:, None] + np.arange(size)
        front = _beta_fronts(a, b, x)

        def up(anchor, rise):  # anchor + rise[0] + ... + rise[r-1] at r = cols
            return np.cumsum(np.column_stack([anchor[bottom], rise[:, :-1]]), axis=1)[row_of, cols]

        def down(anchor, fall):  # the top anchor + fall[-1] + ... + fall[r] at r = cols
            tail = np.column_stack([anchor[bottom + 1], fall[:, :0:-1]])
            return np.cumsum(tail, axis=1)[row_of, size - cols]

        tails[inside, 0] = down(anchors[:, 0], front / a)
        tails[inside, 1] = up(anchors[:, 1], front * ((1.0 - x) / (x * b)))
        fall = front * (x / (1.0 - x)) / (a * (a + 1.0))
        tails[inside, 2] = 0.5 * k[inside] * down(anchors[:, 2] / (0.5 * kb), fall)
        if inverse_square:
            rise = front * (((1.0 - x) / x) ** 2 / (b * (b + 1.0))) * (a - 1.0)
            tails[inside, 3] = up(anchors[:, 3], rise)
    inv2 = n * (n + 2.0) / ((k - 2.0) * (k - 4.0)) * tails[:, 3] if inverse_square else None
    return tails[:, 0], n / (k - 2.0) * tails[:, 1], tails[:, 2], inv2


def poisson_weights(mean: float):
    """(j0, w) with w[i] = P(N = j0 + i) for N ~ Poisson(mean).

    The log ratios log(P(j)/P(m)) to the mode m = floor(mean) are summed
    outward from it, from P(j)/P(j-1) = mean/j, on a window of
    9 sqrt(mean) + 40 indices either side; the ends below 1e-17 of the
    modal term are dropped and the rest are scaled to sum to one. No term
    of size j log(mean) has to cancel, so a weight is good to about 1e-13
    at mean = 5e5, where log probabilities from lgamma were 2e-9 off. The
    mass left out is below 1e-15, and the number of terms grows like
    sqrt(mean).
    """
    if not 0.0 <= mean < math.inf:
        raise ValueError(f"the Poisson mean must be finite and nonnegative, got {mean!r}")
    if mean == 0.0:
        return 0, np.ones(1)
    mode = int(mean)
    half = int(9.0 * math.sqrt(mean)) + 40
    lo = max(mode - half, 0)
    log_w = np.concatenate([np.cumsum(np.log(np.arange(mode, lo, -1) / mean))[::-1], [0.0],
                            np.cumsum(np.log(mean / np.arange(mode + 1, mode + half + 1)))])
    keep = np.flatnonzero(log_w >= math.log(1e-17))
    w = np.exp(log_w[keep[0]:keep[-1] + 1])
    return lo + int(keep[0]), w / w.sum()


# Tanh-sinh nodes x = 1/(1 + e^{-pi sinh t}) at t = i/16, |t| <= 4 (Takahasi & Mori
# 1974), with 1 - x formed on its own so an end singularity keeps its relative
# accuracy. The rows of _TS_WEIGHTS are the rule at steps 1/16, 1/8 and 1/4.
_TS_T = np.arange(-64, 65) / 16.0
_TS_X, _TS_Y = 1.0 / (1.0 + np.exp(np.multiply.outer([-np.pi, np.pi], np.sinh(_TS_T))))
_TS_WEIGHTS = (np.pi * np.cosh(_TS_T) * _TS_X * _TS_Y / np.array([[16.0], [8.0], [4.0]])
               * (np.arange(129) % np.array([[1], [2], [4]]) == 0))


def _integrate(f, m: int, rel: float, abs_tol: float) -> np.ndarray:
    """Integrals over (0, 1) of m integrands at once, by adaptive tanh-sinh.

    ``f(rows, x, y)`` gives the integrands of integrals ``rows`` (shape (P,))
    at the nodes x (P, 129) of P pieces, with y = 1 - x exact. A piece's
    error is the larger change between the steps 1/4, 1/8 and 1/16. While an
    integral's error sum exceeds max(abs_tol, rel |I|), its pieces with more
    than an equal share of that are halved, which finds undeclared kinks and
    jumps. More than 64 pieces for one integral or one narrower than 2**-52,
    where 1 - x stops being exact (a divergent integrand), or a non-finite
    value raises RuntimeError.
    """
    new, done = np.column_stack([np.arange(m), np.zeros(m), np.ones(m)]), np.zeros((0, 5))
    while True:  # new: (integral, lo, width); done adds (value, error)
        lo, width = new[:, 1:2], new[:, 2:3]
        levels = width * (f(new[:, 0].astype(int), lo + width * _TS_X,
                            (1.0 - lo - width) + width * _TS_Y) @ _TS_WEIGHTS.T)
        error = np.max(abs(np.diff(levels, axis=1)), axis=1)
        if not np.all(np.isfinite(error)):
            raise RuntimeError("quadrature met a non-finite integrand value")
        pieces = np.vstack([done, np.column_stack([new, levels[:, 0], error])])
        rows = pieces[:, 0].astype(int)
        total, error_sum, count = (np.bincount(rows, v, m)
                                   for v in (pieces[:, 3], pieces[:, 4], None))
        target = np.maximum(abs_tol, rel * abs(total))
        split = (pieces[:, 4] * count[rows] > target[rows]) & (error_sum > target)[rows]
        if not split.any():
            return total
        if (count + np.bincount(rows[split], None, m)).max() > 64 or \
                pieces[split, 2].min() <= 2.0 ** -51:
            raise RuntimeError("quadrature did not converge; the integral may diverge")
        done, new = pieces[~split], np.repeat(pieces[split, :3], 2, axis=0)
        new[:, 2] *= 0.5
        new[1::2, 1] += new[1::2, 2]


def ratio_expectation(f, k: int, n: int) -> float:
    """E[f(W)] for W = U/V, with U ~ chi^2_k and V ~ chi^2_n independent.

    T = W/(1+W) is Beta(k/2, n/2), so the mean is one integral over
    t in (0, 1) of f(t/(1-t)) against the Beta(k/2, n/2) density, to a
    relative 1e-10 or an absolute 1e-13, whichever is looser (``_integrate``,
    which finds kinks and jumps of f). ``f`` takes an array of W > 0 and
    returns an array of the same shape. A divergent mean raises RuntimeError.
    """
    a, b = 0.5 * _check_df(k), 0.5 * _check_df(n, "n")

    def integrand(rows, t, s):
        return f(t / s) * np.exp((a - 1.0) * np.log(t) + (b - 1.0) * np.log(s) - _log_beta(a, b))

    return float(_integrate(integrand, 1, 1e-10, 1e-13)[0])
