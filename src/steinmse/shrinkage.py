"""Shrinkage estimators of a multivariate normal mean.

The observations are a vector X ~ N_p(theta, sigma^2 I_p) and an
independent scale statistic S ~ sigma^2 chi^2_n, with theta and sigma^2
both unknown and p >= 3. Every rule in the family pulls X toward the
origin by a data-driven factor,

    delta(X, S) = (1 - phi(W) / W) X,        W = ||X||^2 / S.

A constant phi = (p-2)/(n+2) is the James-Stein rule; capping phi at W
(so the factor never goes negative) gives its positive-part version.
Linear regression problems reduce to this canonical form through
``canonicalize_regression``.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .distributions import poisson_weights, ratio_expectation, ratio_moment_ladder

__all__ = [
    "FamilyKind",
    "ProblemDims",
    "Observation",
    "ShrinkageFamily",
    "ShrunkToOriginWarning",
    "family_from_name",
    "apply_estimator",
    "shrink_factors",
    "canonicalize_regression",
    "risk_reduction_integrand",
    "true_risk",
    "true_mse_matrix",
]


class FamilyKind(enum.Enum):
    JAMES_STEIN = "james-stein"
    POSITIVE_PART = "positive-part"
    CUSTOM = "custom"


class ShrunkToOriginWarning(UserWarning):
    """The shrinkage factor was pinned at zero because W = 0."""


@dataclass(frozen=True)
class ProblemDims:
    """Mean dimension p (>= 3) and scale degrees of freedom n (>= 1)."""

    p: int
    n: int

    def __post_init__(self):
        if int(self.p) != self.p or self.p < 3:
            raise ValueError("p must be an integer >= 3 (shrinkage does not dominate below dimension 3)")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("n must be an integer >= 1")
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "n", int(self.n))

    @property
    def shrink_constant(self) -> float:
        """The James-Stein shrinkage level (p-2)/(n+2)."""
        return (self.p - 2) / (self.n + 2)


@dataclass(frozen=True, eq=False)
class Observation:
    """Data vector x and the positive scale statistic s; w = ||x||^2 / s,
    which must be finite, and the unit axis of x, made on first use."""

    x: np.ndarray
    s: float

    def __post_init__(self):
        x = np.array(self.x, dtype=float, copy=True).reshape(-1)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        if not np.isfinite(x).all():
            raise ValueError("observation vector must be finite")
        if not (self.s > 0 and np.isfinite(self.s)):
            raise ValueError("scale statistic s must be positive and finite")
        object.__setattr__(self, "s", float(self.s))
        if not math.isfinite(self.w):
            raise ValueError("the statistic W = ||x||^2 / s must be finite")

    @cached_property  # every estimate reads W; __post_init__ computes it once
    def w(self) -> float:
        with np.errstate(over="ignore"):
            xx = float(self.x @ self.x)
        if xx == math.inf:  # ||x||^2 overflows, but W need not: scale x by max |x_i|
            m = float(np.max(abs(self.x)))
            return m / self.s * m * float((self.x / m) @ (self.x / m))
        return xx / self.s

    @cached_property  # every matrix estimate and set of this observation shares it
    def axis(self) -> np.ndarray:
        """The read-only unit axis u = x/||x||, or e1 at x = 0."""
        x = self.x
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(x))
        if norm == math.inf:  # ||x||^2 overflows; x / max |x_i| has the same axis
            x = x / np.max(abs(x))
            norm = float(np.linalg.norm(x))
        u = x / norm if norm > 0 else np.eye(x.size)[0].copy()
        u.setflags(write=False)
        return u


@dataclass(frozen=True, eq=False)
class ShrinkageFamily:
    """A member of the shrinkage class: phi and its derivative in W.

    Both callables must stay finite on W >= 0 and accept numpy arrays: the
    built-in ones are vectorized, and the quadrature calls custom ones on
    whole node arrays. ``phi_continuous`` declares what the unbiased-estimation
    machinery may rely on: the general (quadrature) path requires a
    continuous phi, while the built-in positive-part rule carries its own
    branch constants for the kink.
    """

    kind: FamilyKind
    phi: Callable
    phi_prime: Callable
    phi_continuous: bool = True
    label: str = "custom"

    @property
    def has_closed_forms(self) -> bool:
        return self.kind in (FamilyKind.JAMES_STEIN, FamilyKind.POSITIVE_PART)

    @staticmethod
    def james_stein(dims: ProblemDims) -> "ShrinkageFamily":
        k = dims.shrink_constant

        def phi(w):
            return np.full(np.shape(w), k)

        def phi_prime(w):
            return np.zeros(np.shape(w))

        return ShrinkageFamily(FamilyKind.JAMES_STEIN, phi, phi_prime, True, "james-stein")

    @staticmethod
    def positive_part(dims: ProblemDims) -> "ShrinkageFamily":
        k = dims.shrink_constant

        def phi(w):
            return np.minimum(np.asarray(w, dtype=float), k)

        def phi_prime(w):
            # Slope 1 below the kink, 0 above; the kink itself takes the
            # right-hand value (a measure-zero point).
            return np.where(np.asarray(w, dtype=float) < k, 1.0, 0.0)

        return ShrinkageFamily(FamilyKind.POSITIVE_PART, phi, phi_prime, True, "positive-part")

    @staticmethod
    def custom(phi, phi_prime, phi_continuous=True, label="custom"):
        return ShrinkageFamily(FamilyKind.CUSTOM, phi, phi_prime, phi_continuous, label)


_FAMILY_ALIASES = {
    "js": FamilyKind.JAMES_STEIN,
    "james-stein": FamilyKind.JAMES_STEIN,
    "james_stein": FamilyKind.JAMES_STEIN,
    "js-plus": FamilyKind.POSITIVE_PART,
    "js+": FamilyKind.POSITIVE_PART,
    "positive-part": FamilyKind.POSITIVE_PART,
    "positive_part": FamilyKind.POSITIVE_PART,
}


def _family_kind(name: str) -> FamilyKind:
    """The built-in family a CLI / config alias names; ValueError if none."""
    try:
        return _FAMILY_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; expected one of {sorted(_FAMILY_ALIASES)}") from None


def family_from_name(name: str, dims: ProblemDims) -> ShrinkageFamily:
    """Build a built-in family from a CLI / config alias."""
    if _family_kind(name) is FamilyKind.JAMES_STEIN:
        return ShrinkageFamily.james_stein(dims)
    return ShrinkageFamily.positive_part(dims)


def shrink_factors(fam: ShrinkageFamily, w) -> np.ndarray:
    """Vector of factors 1 - phi(W)/W over strictly positive W values."""
    w = np.asarray(w, dtype=float)
    return 1.0 - np.asarray(fam.phi(w), dtype=float) / w


def apply_estimator(obs: Observation, fam: ShrinkageFamily, dims: ProblemDims) -> np.ndarray:
    """Point estimate (1 - phi(W)/W) x.

    W = 0 makes phi(W)/W singular for rules that do not vanish at the
    origin; the estimate is then pinned at the zero vector and a
    ShrunkToOriginWarning is emitted (the event has probability zero under
    the model). The positive-part rule reaches the same zero vector
    continuously, without a warning.
    """
    if obs.x.shape != (dims.p,):
        raise ValueError(f"observation has length {obs.x.shape[0]}, expected p={dims.p}")
    w = obs.w
    if w == 0.0:
        if fam.kind is not FamilyKind.POSITIVE_PART:
            warnings.warn("W = 0: estimate shrunk to the origin", ShrunkToOriginWarning)
        return np.zeros(dims.p)
    return float(shrink_factors(fam, w)) * obs.x


def canonicalize_regression(design, response):
    """Reduce a full-rank linear regression to the canonical (X, S) form.

    With design A (N x p, full column rank) and response Y, returns
    ``(Observation(X, S), ProblemDims(p, N - p), B)`` where
    B = (A'A)^{1/2} is the symmetric square root, X = B^{-1} A' Y and S is
    the residual sum of squares. The canonical mean is B beta, so a
    shrinkage estimate delta maps back to the coefficient scale as
    B^{-1} delta.
    """
    a = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).reshape(-1)
    if a.ndim != 2:
        raise ValueError("design must be a 2-D matrix")
    n_obs, p = a.shape
    if y.shape[0] != n_obs:
        raise ValueError("response length does not match the design row count")
    if n_obs <= p:
        raise ValueError("need more observations than regressors for a residual scale")
    gram = a.T @ a
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals[0] <= eigvals[-1] * 1e-12:
        raise ValueError("design matrix is rank deficient")
    basis = (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
    aty = a.T @ y
    x = np.linalg.solve(basis, aty)
    s = float(y @ y - aty @ np.linalg.solve(gram, aty))
    if s <= 0:
        raise ValueError("residual sum of squares is not positive; the model fits the data exactly")
    return Observation(x, s), ProblemDims(p, n_obs - p), basis


def _require_continuous_phi(fam: ShrinkageFamily) -> None:
    """Reject a discontinuous phi wherever phi' is read."""
    if not fam.phi_continuous:
        raise ValueError("this rule needs a continuous phi: phi' misses the term that a "
                         "jump in phi adds")


def risk_reduction_integrand(fam: ShrinkageFamily, dims: ProblemDims, w) -> np.ndarray:
    """Pointwise risk-reduction term whose mean over W is p minus the risk.

    2(p-2) phi/W - (n+2) phi^2/W + 4 phi' + 4 phi phi'. The expression
    comes from integrating the squared error by parts against the
    chi-square scale (Stein's identity), so the risk depends on theta only
    through the law of W. Its mean over W = chi^2_k / chi^2_n is a closed
    form or one quadrature, and the zero-signal constant alpha and the
    exact ``true_risk`` are built on it. A discontinuous phi raises
    ValueError, since the integration by parts then gains a jump term.
    """
    _require_continuous_phi(fam)
    w = np.asarray(w, dtype=float)
    phi = np.asarray(fam.phi(w), dtype=float)
    dphi = np.asarray(fam.phi_prime(w), dtype=float)
    p, n = dims.p, dims.n
    return 2.0 * (p - 2.0) * phi / w - (n + 2.0) * phi * phi / w + 4.0 * dphi + 4.0 * phi * dphi


# Cached because the constants scans call it once per moment.
@lru_cache(maxsize=128)
def _require_dims_match(fam: ShrinkageFamily, dims: ProblemDims) -> None:
    """Reject a built-in family whose phi is the rule of dims other than ``dims``."""
    if fam.has_closed_forms and float(fam.phi(np.inf)) != dims.shrink_constant:
        raise ValueError(f"this {fam.label} family was built for other dims than {dims}")


def _reduction_means(fam: ShrinkageFamily, dims: ProblemDims, steps) -> np.ndarray:
    """Means of ``risk_reduction_integrand`` over W = U/V, U ~ chi^2_k and
    V ~ chi^2_n, for k = p + 2l, l in ``steps``.

    Closed forms for the built-in families: n(p-2)^2/((n+2)(k-2)) for the
    James-Stein rule, and for the positive-part rule the partial moments of
    W on either side of the kink c = (p-2)/(n+2) (``ratio_moment_ladder``
    from k = p), where the integrand is 2p - (n-2)W below and c(p-2)/W
    above. Custom families get one quadrature per k (``ratio_expectation``).
    """
    p, n = dims.p, dims.n
    k = p + 2 * np.asarray(steps, dtype=np.int64)
    if not fam.has_closed_forms:
        return np.array([ratio_expectation(lambda w: risk_reduction_integrand(fam, dims, w), kk, n)
                         for kk in k.tolist()])
    _require_dims_match(fam, dims)
    if fam.kind is FamilyKind.JAMES_STEIN:
        return n * (p - 2.0) / (n + 2.0) * ((p - 2.0) / (k - 2.0))
    c = dims.shrink_constant
    below, inv_above, w_below, _ = ratio_moment_ladder(p, n, c, steps)
    return 2.0 * p * below - (n - 2.0) * w_below + c * (p - 2.0) * inv_above


def _shrink_factor_tables(fam: ShrinkageFamily, dims: ProblemDims, steps):
    """(G, G2, D) over k = p + 2 + 2l for l in ``steps``: G = E[g] and
    G2 = E[g^2] for g = phi(W)/W over W = U/V, U ~ chi^2_k, V ~ chi^2_n, and
    D = G(k) - G(k+2), read only where l + 1 is the next step.

    Both built-in rules have g = 1 below a cut (c for the positive part, 0
    for James-Stein) and c/W above it, so the partial moments from
    ``ratio_moment_ladder`` give G and G2. For them D is the cancellation-free
    (2c/k) E[1/W; W > c]: a chi^2_{k+2} density is u/k times a chi^2_k one,
    so G(k) - G(k+2) = -(2/k) E[W g'(W)] over chi^2_k, and W g'(W) is -c/W
    above the cut and 0 below it. Custom families get one quadrature per k
    for each of G and G2, and D = G(k) - G(k+2).
    """
    k = dims.p + 2 + 2 * np.asarray(steps, dtype=np.int64)
    if not fam.has_closed_forms:
        def g(w):
            return np.asarray(fam.phi(w), dtype=float) / w

        tables = np.array([(ratio_expectation(g, kk, dims.n),
                            ratio_expectation(lambda w: g(w) ** 2, kk, dims.n))
                           for kk in k.tolist()]).reshape(-1, 2)
        mean, square = tables[:, 0], tables[:, 1]
        return mean, square, mean - np.append(mean[1:], 0.0)
    _require_dims_match(fam, dims)
    c = dims.shrink_constant
    cut = c if fam.kind is FamilyKind.POSITIVE_PART else 0.0
    below, inv_above, _, inv2_above = ratio_moment_ladder(dims.p + 2, dims.n, cut, steps,
                                                          inverse_square=True)
    return below + c * inv_above, below + c * c * inv2_above, 2.0 * c / k * inv_above


def _mixture_windows(lam, extra: int = 0):
    """The Poisson(lam/2) weights (j0, w) of each lam in ``lam`` (a scalar or
    an array), and the sorted steps j0 .. j0 + len(w) - 1 + ``extra`` that
    they cover. A negative or non-finite lam raises ValueError."""
    windows = [poisson_weights(0.5 * v) for v in np.ravel(np.asarray(lam, dtype=float)).tolist()]
    spans = np.sort(np.concatenate([np.arange(j0, j0 + len(w) + extra) for j0, w in windows]
                                   + [np.zeros(0, dtype=int)]))
    return windows, spans[np.diff(spans, prepend=-1) > 0]  # np.unique would import numpy.ma


def _shaped(lam, values: list):
    """``values``, one per lam, as a float for a scalar lam, else an array of lam's shape."""
    shape = np.shape(lam)
    return values[0] if shape == () else np.array(values).reshape(shape)


def true_risk(fam: ShrinkageFamily, dims: ProblemDims, lam):
    """Exact risk of the rule at noncentrality lam (sigma^2 = 1 units), a
    float for a scalar lam and an array of lam's shape for an array.

    ||X||^2 ~ chi^2_p(lam) is a Poisson(lam/2) mixture of chi^2_{p+2j}, so
    the risk is p - sum_j P(j) m(p + 2j), with m(k) the mean of
    ``risk_reduction_integrand`` over W = chi^2_k / chi^2_n, taken once for
    every k that some lam needs and summed exactly (``math.fsum``). So a
    lam's risk has the same bits alone as in a grid. It does not depend on
    the true scale or on the direction of theta, and at lam = 0 it is
    exactly p - ``alpha_pn``. A negative or non-finite lam raises ValueError.
    """
    windows, steps = _mixture_windows(lam)
    means = _reduction_means(fam, dims, steps)
    risks = []
    for j0, w in windows:
        i = int(np.searchsorted(steps, j0))
        risks.append(dims.p - math.fsum(w * means[i:i + len(w)]))
    return _shaped(lam, risks)


def true_mse_matrix(fam: ShrinkageFamily, dims: ProblemDims, lam):
    """Exact MSE matrix E[(delta - theta)(delta - theta)'] = a I + b theta theta'.

    Returns (a, b), floats for a scalar lam and arrays of lam's shape for
    an array. With h = 1 - g, g = phi(W)/W, the Judge & Bock (1978) identity
    E[f(||X||^2) X X'] = E[f(chi^2_{p+2}(lam))] I + E[f(chi^2_{p+4}(lam))] theta theta'
    gives a = E[h^2] at chi^2_{p+2}(lam) and
    b = E[h^2] at chi^2_{p+4}(lam) - 2 E[h] at chi^2_{p+2}(lam) + 1
      = E[g^2] at chi^2_{p+4}(lam) + 2 (E[g] at chi^2_{p+2}(lam) - E[g] at chi^2_{p+4}(lam)),
    each a Poisson(lam/2) mixture over central chi-squares. b is summed in
    the second form from its per-k terms (``_shrink_factor_tables``), so no
    O(1) numbers cancel where b is small (b ~ 1e-12 at lam = 1e6). The trace
    p a + b lam is ``true_risk``. As there, each lam's values have the same
    bits alone as in a grid.
    """
    windows, steps = _mixture_windows(lam, extra=1)
    mean, square, drop = _shrink_factor_tables(fam, dims, steps)
    a_values, b_values = [], []
    for j0, w in windows:
        i = int(np.searchsorted(steps, j0))
        at, up = slice(i, i + len(w)), slice(i + 1, i + 1 + len(w))
        a_values.append(math.fsum(w * (1.0 - 2.0 * mean[at] + square[at])))
        b_values.append(math.fsum(w * (square[up] + 2.0 * drop[at])))
    return _shaped(lam, a_values), _shaped(lam, b_values)
