"""Unbiased estimates of the risk and risk matrix of a shrinkage rule.

Every estimate in this package shares one algebraic shape: S times an
isotropic part plus a rank-one part along the observed direction
u = x/||x||. ``AxialMatrix`` carries that shape exactly, which keeps
traces, determinants, inverses and volumes O(p) with no dense linear
algebra.

The scalar kernels g1, g2, g3 and g are tail transforms of the family's
phi. Built-in families use closed forms (including the branch constants
of the positive-part rule); general families with continuous phi fall
back to adaptive quadrature of the tail integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .shrinkage import FamilyKind, Observation, ProblemDims, ShrinkageFamily

__all__ = [
    "AxialMatrix",
    "GFunctions",
    "g_transform",
    "g_functions",
    "positive_part_branch_constants",
    "umvue_mse",
    "umvue_mse_at",
    "umvue_mse_matrix",
    "umvue_risk_reduction",
    "umvue_risk_reduction_matrix",
]


@dataclass(frozen=True)
class AxialMatrix:
    """Symmetric matrix of the form scale * (iso * I + axial * u u').

    ``axis`` u is a unit vector; the eigenvalues are scale*iso with
    multiplicity dim-1 and scale*(iso+axial) on the axis. The container
    does not require definiteness, so risk-reduction matrices (whose axis
    eigenvalue is negative) fit too; positive definiteness is checked
    where inverses or volumes are taken.
    """

    dim: int
    scale: float
    iso: float
    axial: float
    axis: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise ValueError("scale must be positive and finite")
        axis = np.array(self.axis, dtype=float, copy=True).reshape(-1)
        if axis.shape != (self.dim,):
            raise ValueError(f"axis must have length {self.dim}")
        norm = float(np.linalg.norm(axis))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"axis must be a unit vector (norm {norm:.15g})")
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)

    @property
    def iso_eigenvalue(self) -> float:
        """Eigenvalue on the (dim-1)-dimensional subspace orthogonal to u."""
        return self.scale * self.iso

    @property
    def axis_eigenvalue(self) -> float:
        """Eigenvalue along u."""
        return self.scale * (self.iso + self.axial)

    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, axis eigenvalue first."""
        out = np.full(self.dim, self.iso_eigenvalue)
        out[0] = self.axis_eigenvalue
        return out

    def trace(self) -> float:
        return self.scale * (self.dim * self.iso + self.axial)

    @property
    def is_positive_definite(self) -> bool:
        return self.iso_eigenvalue > 0 and self.axis_eigenvalue > 0

    def det(self) -> float:
        return self.iso_eigenvalue ** (self.dim - 1) * self.axis_eigenvalue

    def logdet(self) -> float:
        if not self.is_positive_definite:
            raise ValueError("log-determinant requires a positive definite matrix")
        return (self.dim - 1) * np.log(self.iso_eigenvalue) + np.log(self.axis_eigenvalue)

    def to_dense(self) -> np.ndarray:
        u = self.axis
        return self.scale * (self.iso * np.eye(self.dim) + self.axial * np.outer(u, u))


@dataclass(frozen=True, eq=False)
class GFunctions:
    """The four scalar kernels entering the unbiased risk formulas.

    All are callables of W > 0, vectorized over numpy arrays, satisfying
    g3 = g2 + phi^2/W and g = p*g1 - g2 identically (the latter makes the
    trace of the matrix estimate agree with the scalar estimate exactly).
    """

    g1: Callable
    g2: Callable
    g3: Callable
    g: Callable


def g_transform(h, dims: ProblemDims, w: float, c0: float = 0.0, breakpoints=()) -> float:
    """Tail transform g(w) = w^{n/2} ( int_w^inf t^{-n/2-1} h(t) dt + c0 ).

    The infinite tail is mapped onto (0, 1] by t = w/v and integrated with
    adaptive Gauss-Kronrod quadrature (relative error target 1e-9).
    ``breakpoints`` lists t-values where h has kinks so subdivision edges
    land there. Integrating the exact (possibly kinked) h across its kink
    already yields an absolutely continuous transform, so c0 stays 0 in
    that case; a nonzero c0 only arises for callers working branch by
    branch.
    """
    # Imported here: only custom families reach the quadrature, and
    # scipy.integrate is about half the import cost of the package.
    from scipy.integrate import quad

    if not w > 0:
        raise ValueError("w must be positive")
    n = dims.n

    def integrand(v: float) -> float:
        if v <= 0.0:
            return 0.0
        return v ** (0.5 * n - 1.0) * float(h(w / v))

    pts = sorted(w / t for t in breakpoints if t > w)
    kwargs = {"points": pts} if pts else {}
    result = quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-11, limit=200,
                  full_output=1, **kwargs)
    value, abserr = result[0], result[1]
    if len(result) > 3:
        raise RuntimeError(f"tail integral did not converge at w={w}: {result[3]}")
    if abserr > 1e-9 * abs(value) + 1e-12:
        raise RuntimeError(
            f"tail integral too inaccurate at w={w}: estimate {value:.6e}, error {abserr:.3e}")
    return value + c0 * w ** (0.5 * n)


def positive_part_branch_constants(dims: ProblemDims):
    """(C0, C1, C2) entering the positive-part closed forms below the kink."""
    p, n = dims.p, dims.n
    k = dims.shrink_constant
    scale = k ** (-0.5 * n)
    c0 = 2.0 * (p / n - k) * scale
    c1 = 2.0 * (1.0 / n - 1.0 / (n + 2.0)) * scale
    c2 = 4.0 / (n + 2.0) * scale
    return c0, c1, c2


def _transform_vectorized(h, dims: ProblemDims, breakpoints=()):
    def gfun(w):
        if np.ndim(w) == 0:
            return g_transform(h, dims, float(w), 0.0, breakpoints)
        return np.array([g_transform(h, dims, float(wi), 0.0, breakpoints)
                         for wi in np.asarray(w, dtype=float)])
    return gfun


@lru_cache(maxsize=128)
def g_functions(fam: ShrinkageFamily, dims: ProblemDims) -> GFunctions:
    """Vectorized g-kernels for a family, closed-form where available.

    The general path requires a continuous phi; a discontinuous custom phi
    is rejected because its transform needs family-specific branch
    constants (only the positive-part rule's are built in).
    """
    p, n = dims.p, dims.n
    k = dims.shrink_constant
    half_n = 0.5 * n
    js_c1 = 2.0 * (p - 2.0) / (n + 2.0) ** 2
    js_c2 = 4.0 * (p - 2.0) / (n + 2.0) ** 2  # g3 - phi^2/W for the constant rule

    if fam.kind is FamilyKind.JAMES_STEIN:

        def g1(w):
            return js_c1 / np.asarray(w, dtype=float)

        def g2(w):
            return js_c2 / np.asarray(w, dtype=float)

    elif fam.kind is FamilyKind.POSITIVE_PART:
        _, pp_c1, pp_c2 = positive_part_branch_constants(dims)

        def g1(w):
            w = np.asarray(w, dtype=float)
            with np.errstate(divide="ignore"):
                return np.where(w <= k, 2.0 / n - pp_c1 * w ** half_n, js_c1 / w)

        def g2(w):
            w = np.asarray(w, dtype=float)
            with np.errstate(divide="ignore"):
                return np.where(w <= k, pp_c2 * w ** half_n, js_c2 / w)

    else:
        if not fam.phi_continuous:
            raise ValueError(
                "general-path unbiased estimation needs a continuous phi; "
                "discontinuous rules require dedicated branch constants")

        def h1(t):
            return float(np.asarray(fam.phi(t), dtype=float)) / t

        def h2(t):
            return 2.0 * (float(np.asarray(fam.phi(t), dtype=float)) / t
                          - float(np.asarray(fam.phi_prime(t), dtype=float)))

        g1 = _transform_vectorized(h1, dims)
        g2 = _transform_vectorized(h2, dims)

    def g3(w):
        w_arr = np.asarray(w, dtype=float)
        phi = np.asarray(fam.phi(w_arr), dtype=float)
        return np.asarray(g2(w_arr), dtype=float) + phi * phi / w_arr

    def g(w):
        return p * np.asarray(g1(w), dtype=float) - np.asarray(g2(w), dtype=float)

    return GFunctions(g1, g2, g3, g)


def _positive_w(obs: Observation) -> float:
    w = obs.w
    if not w > 0:
        raise ValueError("the statistic W = ||x||^2 / s must be positive here")
    return w


def umvue_mse_at(w, s, fam: ShrinkageFamily, dims: ProblemDims):
    """Unbiased risk estimate from (W, S) values; vectorized."""
    gf = g_functions(fam, dims)
    w = np.asarray(w, dtype=float)
    s = np.asarray(s, dtype=float)
    phi = np.asarray(fam.phi(w), dtype=float)
    return dims.p * s / dims.n - s * np.asarray(gf.g(w), dtype=float) + s * phi * phi / w


def umvue_mse(obs: Observation, fam: ShrinkageFamily, dims: ProblemDims) -> float:
    """Unbiased estimate of the rule's risk, pS/n - S g(W) + S phi^2(W)/W.

    Negative values are possible for small W; repairing that without
    giving up risk is exactly what the improved estimators are for.
    """
    w = _positive_w(obs)
    return float(umvue_mse_at(w, obs.s, fam, dims))


def umvue_mse_matrix(obs: Observation, fam: ShrinkageFamily, dims: ProblemDims) -> AxialMatrix:
    """Unbiased estimate of the MSE matrix as an AxialMatrix.

    Components: scale S, isotropic part 1/n - g1(W), axial part g3(W) on
    u = x/||x||. Its trace equals ``umvue_mse`` identically.
    """
    w = _positive_w(obs)
    gf = g_functions(fam, dims)
    iso = 1.0 / dims.n - float(np.asarray(gf.g1(w), dtype=float))
    axial = float(np.asarray(gf.g3(w), dtype=float))
    axis = obs.x / np.linalg.norm(obs.x)
    return AxialMatrix(dims.p, obs.s, iso, axial, axis)


def umvue_risk_reduction(obs: Observation, fam: ShrinkageFamily, dims: ProblemDims) -> float:
    """Unbiased estimate of the risk reduction p sigma^2 - risk: pS/n minus
    the unbiased risk estimate."""
    return dims.p * obs.s / dims.n - umvue_mse(obs, fam, dims)


def umvue_risk_reduction_matrix(obs: Observation, fam: ShrinkageFamily,
                                dims: ProblemDims) -> AxialMatrix:
    """Unbiased estimate of the matrix risk reduction (S/n) I minus the
    matrix estimate: iso part g1(W), axial part -g3(W)."""
    w = _positive_w(obs)
    gf = g_functions(fam, dims)
    iso = float(np.asarray(gf.g1(w), dtype=float))
    axial = -float(np.asarray(gf.g3(w), dtype=float))
    axis = obs.x / np.linalg.norm(obs.x)
    return AxialMatrix(dims.p, obs.s, iso, axial, axis)
