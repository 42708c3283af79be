"""Improved scalar estimates of a shrinkage rule's MSE.

The unbiased estimate pS(1 - a(W))/n can go negative. This module builds
the estimators that repair it while lowering (never raising) the quadratic
risk of the estimate itself:

* a double truncation to [0, pS(1+W)/(n+p+2)] (``PSI0``);
* strictly positive estimates obtained by improving the complementary
  risk-reduction estimate, using the zero-signal reduction ``alpha`` and
  the threshold root ``w_pn`` (``PSI1``, ``PSI2``);
* their admissibility-capped refinements (``PSI1_TR``, ``PSI2_TR``).

The cap pS(1+W)/(n+p+2) is a necessary condition: anything in the class
that leaves [0, cap] is beaten by its truncation to it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._rootfind import bracketed_bisect
from .shrinkage import (FamilyKind, Observation, ProblemDims, ShrinkageFamily, _reduction_mean,
                        _require_dims_match)
from .umvue import g_functions

__all__ = [
    "MseEstimatorKind",
    "ShrinkageConstants",
    "a_of_w",
    "alpha_pn",
    "solve_w_pn",
    "gamma_pn",
    "shrinkage_constants",
    "estimate_mse",
    "estimate_mse_at",
    "psi1_positive_certified",
    "truncation_band_nonempty",
]


class MseEstimatorKind(enum.Enum):
    UMVUE = "umvue"
    TRUNCATED_ZERO = "tr0"
    PSI0 = "psi0"
    PSI1 = "psi1"
    PSI2 = "psi2"
    PSI1_TR = "psi1-tr"
    PSI2_TR = "psi2-tr"

    @property
    def needs_constants(self) -> bool:
        """Whether the estimate needs precomputed ShrinkageConstants."""
        return self in (MseEstimatorKind.PSI1, MseEstimatorKind.PSI2,
                        MseEstimatorKind.PSI1_TR, MseEstimatorKind.PSI2_TR)


@dataclass(frozen=True)
class ShrinkageConstants:
    """Zero-signal constants behind the positive MSE estimates.

    alpha : maximal risk reduction (sigma^2 units, at zero signal), in (0, p).
    w_pn : root of (1+W)/a(W) = p(n+p+2)/(n alpha).
    gamma : n (1 + w_pn)/(n+p+2); gamma < p/alpha certifies that the first
        positive estimate never returns zero.
    provenance : how alpha was computed, "closed-form" (built-in families)
        or "quadrature" (custom families).
    """

    alpha: float
    w_pn: float
    gamma: float
    provenance: str


def a_of_w(fam: ShrinkageFamily, dims: ProblemDims, w):
    """Scaled risk-reduction kernel a(W) = (n/p)(g(W) - phi^2(W)/W).

    The unbiased risk estimate is pS(1 - a(W))/n, so a(W) carries the whole
    data-dependence of the estimate beyond the pS/n baseline.
    """
    gf = g_functions(fam, dims)
    w = np.asarray(w, dtype=float)
    phi = np.asarray(fam.phi(w), dtype=float)
    return (dims.n / dims.p) * (np.asarray(gf.g(w), dtype=float) - phi * phi / w)


def alpha_pn(fam: ShrinkageFamily, dims: ProblemDims) -> float:
    """Risk reduction at zero signal, in sigma^2 units: p - true_risk(fam, dims, 0).

    The mean of ``risk_reduction_integrand`` over W = U/V with U ~ chi^2_p,
    V ~ chi^2_n: n(p-2)/(n+2) for the James-Stein rule, a closed form in
    the partial moments of W about the kink for the positive-part rule, and
    one quadrature (``ratio_expectation``) for custom families. The caller
    vouches that phi(W)/W is nonincreasing so the reduction really is
    maximized at zero signal (true for both built-in families).
    """
    return _reduction_mean(fam, dims, dims.p)


def solve_w_pn(fam: ShrinkageFamily, dims: ProblemDims, alpha: float) -> float:
    """Root W of (1+W)/a(W) = p(n+p+2)/(n alpha).

    For the James-Stein rule the equation collapses to the quadratic
    W(1+W) = (n+p+2)(p-2)/(n(n+2)), solved in closed form. Other families
    are bracketed starting from [1e-8, (p+2)/n + 10] (the closed-form root
    always sits below (p+2)/n, which motivates the bracket) and bisected to
    1e-10.
    """
    p, n = dims.p, dims.n
    if not 0.0 < alpha < p:
        raise ValueError(f"alpha must lie in (0, p); got {alpha!r}")
    if fam.kind is FamilyKind.JAMES_STEIN:
        _require_dims_match(fam, dims)
        c = (n + p + 2.0) * (p - 2.0) / (n * (n + 2.0))
        return 0.5 * (np.sqrt(1.0 + 4.0 * c) - 1.0)
    target = p * (n + p + 2.0) / (n * alpha)

    def f(w: float) -> float:
        return (1.0 + w) / float(a_of_w(fam, dims, w)) - target

    return bracketed_bisect(f, 1e-8, (p + 2.0) / n + 10.0)


def gamma_pn(dims: ProblemDims, w_pn: float) -> float:
    """gamma = n (1 + w_pn) / (n + p + 2), the positivity certificate value."""
    if not w_pn > 0:
        raise ValueError("w_pn must be positive")
    return dims.n * (1.0 + w_pn) / (dims.n + dims.p + 2.0)


def shrinkage_constants(fam: ShrinkageFamily, dims: ProblemDims, reps=None,
                        rng=None) -> ShrinkageConstants:
    """Compute (alpha, w_pn, gamma) once for a family / dimension pair.

    alpha is a closed form or a deterministic quadrature, so ``reps`` and
    ``rng`` are ignored; they are still accepted for callers written
    against the former Monte Carlo alpha.
    """
    alpha = alpha_pn(fam, dims)
    w = solve_w_pn(fam, dims, alpha)
    provenance = "closed-form" if fam.has_closed_forms else "quadrature"
    return ShrinkageConstants(alpha, w, gamma_pn(dims, w), provenance)


def estimate_mse_at(kind: MseEstimatorKind, w, s, fam: ShrinkageFamily, dims: ProblemDims,
                    consts: ShrinkageConstants | None = None):
    """Vectorized core: scalar MSE estimates from (W, S) arrays."""
    w = np.asarray(w, dtype=float)
    s = np.asarray(s, dtype=float)
    p, n = dims.p, dims.n
    base = p * s / n * (1.0 - np.asarray(a_of_w(fam, dims, w), dtype=float))
    if kind is MseEstimatorKind.UMVUE:
        return base
    if kind is MseEstimatorKind.TRUNCATED_ZERO:
        return np.maximum(base, 0.0)
    cap = p * s * (1.0 + w) / (n + p + 2.0)
    if kind is MseEstimatorKind.PSI0:
        return np.minimum(np.maximum(base, 0.0), cap)
    if consts is None:
        raise ValueError(f"{kind.value} requires precomputed shrinkage constants")
    if kind in (MseEstimatorKind.PSI1, MseEstimatorKind.PSI1_TR):
        floor = (p * s / n) * (1.0 - consts.gamma * consts.alpha / p)
    else:
        floor = (p * s / n) * (1.0 - consts.alpha / p)
    out = np.maximum(base, floor)
    if kind in (MseEstimatorKind.PSI1_TR, MseEstimatorKind.PSI2_TR):
        out = np.minimum(out, cap)
    return out


def estimate_mse(kind: MseEstimatorKind, obs: Observation, fam: ShrinkageFamily,
                 dims: ProblemDims, consts: ShrinkageConstants | None = None) -> float:
    """Scalar MSE estimate of the requested kind for one observation."""
    w = obs.w
    if not w > 0:
        raise ValueError("W must be positive")
    return float(estimate_mse_at(kind, w, obs.s, fam, dims, consts))


def psi1_positive_certified(consts: ShrinkageConstants, dims: ProblemDims) -> bool:
    """True when gamma * alpha < p guarantees a strictly positive PSI1."""
    return consts.gamma * consts.alpha < dims.p


def truncation_band_nonempty(fam: ShrinkageFamily, dims: ProblemDims) -> bool:
    """Whether some W satisfies (1/a(W))(1 - n(1+W)/(n+p+2)) >= 1.

    On that set the upper cap strictly binds below the zero-truncated
    unbiased estimate, which is what makes PSI0 beat plain truncation at
    zero. Checked on a grid covering the region where the condition can
    hold (it forces n(1+W) < n+p+2, so W < (p+2)/n).
    """
    p, n = dims.p, dims.n
    grid = np.linspace(1e-4, (p + 2.0) / n, 4001)
    a = np.asarray(a_of_w(fam, dims, grid), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = (1.0 - n * (1.0 + grid) / (n + p + 2.0)) / a
    return bool(np.any(lhs[a > 0] >= 1.0))
