"""Unbiased estimates of the risk and risk matrix of a shrinkage rule.

Every estimate in this package shares one algebraic shape: S times an
isotropic part plus a rank-one part along the observed direction
u = x/||x||. ``AxialMatrix`` carries that shape exactly, which keeps
traces, determinants, inverses and volumes O(p) with no dense linear
algebra.

The scalar kernels g1, g2 and g3 are tail transforms of the family's
phi. Built-in families use closed forms (the positive-part rule's branch
terms as n/2-th powers of W times a constant, which never overflow below
the kink); general families with continuous phi get the tail integral for
a whole array of W from one tanh-sinh quadrature.

Every estimate clamps the unbiased kernel at W: pS(1 - a(W))/n and the
matrix parts (1/n - g1(W), g3(W)). The block paths evaluate it on arrays
of W; for one observation ``_kernel_at`` evaluates g1, g2 and phi once per
(family, dims, W) on a one-row block, so each single-observation value is
its block row, and the observation's matrices share its read-only axis.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .distributions import _integrate
from .shrinkage import (FamilyKind, Observation, ProblemDims, ShrinkageFamily,
                        _require_continuous_phi, _require_dims_match)

__all__ = [
    "AxialMatrix",
    "GFunctions",
    "g_transform",
    "g_functions",
    "umvue_mse",
    "umvue_mse_matrix",
]


@dataclass(frozen=True, eq=False)
class AxialMatrix:
    """Symmetric matrix of the form scale * (iso * I + axial * u u').

    ``axis`` u is a unit vector, stored read-only: a read-only float
    vector that owns its data (such as ``Observation.axis``) is kept as it
    is, anything else is copied. The eigenvalues are scale*iso with
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
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")
        axis = self.axis
        if not (isinstance(axis, np.ndarray) and axis.ndim == 1 and axis.dtype == float
                and axis.flags.owndata and not axis.flags.writeable):  # shared, not copied
            axis = np.array(axis, dtype=float, copy=True).reshape(-1)
            axis.setflags(write=False)
        if axis.shape != (self.dim,):
            raise ValueError(f"axis must have length {self.dim}")
        norm = math.sqrt(axis.dot(axis))  # np.linalg.norm's arithmetic
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"axis must be a unit vector (norm {norm:.15g})")
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

    def logdet(self) -> float:
        if not self.is_positive_definite:
            raise ValueError("log-determinant requires a positive definite matrix")
        return (self.dim - 1) * np.log(self.iso_eigenvalue) + np.log(self.axis_eigenvalue)

    def to_dense(self) -> np.ndarray:
        u = self.axis
        return self.scale * (self.iso * np.eye(self.dim) + self.axial * np.outer(u, u))


# The three scalar kernels of the unbiased risk formulas: callables of W > 0,
# vectorized over numpy arrays, with g3 = g2 + phi^2/W. a(W) is formed from
# p*g1 - g2, so the trace of the matrix estimate is the scalar estimate.
GFunctions = namedtuple("GFunctions", ["g1", "g2", "g3"])


def g_transform(h, dims: ProblemDims, w):
    """Tail transform g(w) = w^{n/2} int_w^inf t^{-n/2-1} h(t) dt, for w > 0.

    The infinite tail is mapped onto (0, 1] by t = w/v, and every w of an
    array is integrated at once by ``distributions._integrate`` (relative
    error target 1e-11, absolute 1e-14); ``h`` takes an array of t. Halving
    finds the kinks of h, and integrating the exact (possibly kinked) h
    across its kink already yields an absolutely continuous transform, so
    no branch constant is added.
    """
    w = np.asarray(w, dtype=float)
    if not np.all(w > 0):
        raise ValueError("w must be positive")
    flat = w.reshape(-1)

    def integrand(rows, v, _):
        return v ** (0.5 * dims.n - 1.0) * h(flat[rows, None] / v)

    return _integrate(integrand, flat.size, 1e-11, 1e-14).reshape(w.shape)[()]


@lru_cache(maxsize=128)
def g_functions(fam: ShrinkageFamily, dims: ProblemDims) -> GFunctions:
    """Vectorized g-kernels for a family, closed-form where available.

    The general path requires a continuous phi; a discontinuous custom phi
    is rejected because its transform needs family-specific branch
    constants (only the positive-part rule's are built in).
    """
    _require_dims_match(fam, dims)
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
        # Below the kink k each branch term c (W/k)^{n/2} is formed as
        # (W s)^{n/2} with s = c^{2/n}/k. It is at most c there, so the branch
        # taken never overflows at any n; above the kink the power may
        # overflow, and np.where discards it.
        pp_s1 = (2.0 * (1.0 / n - 1.0 / (n + 2.0))) ** (1.0 / half_n) / k
        pp_s2 = (4.0 / (n + 2.0)) ** (1.0 / half_n) / k

        def g1(w):
            w = np.asarray(w, dtype=float)
            with np.errstate(divide="ignore", over="ignore"):
                return np.where(w <= k, 2.0 / n - (w * pp_s1) ** half_n, js_c1 / w)

        def g2(w):
            w = np.asarray(w, dtype=float)
            with np.errstate(divide="ignore", over="ignore"):
                return np.where(w <= k, (w * pp_s2) ** half_n, js_c2 / w)

    else:
        _require_continuous_phi(fam)

        def h1(t):
            return np.asarray(fam.phi(t), dtype=float) / t

        def h2(t):
            return 2.0 * (np.asarray(fam.phi(t), dtype=float) / t
                          - np.asarray(fam.phi_prime(t), dtype=float))

        g1, g2 = partial(g_transform, h1, dims), partial(g_transform, h2, dims)

    def g3(w):
        w = np.asarray(w, dtype=float)
        return _g3_from(np.asarray(g2(w), dtype=float), np.asarray(fam.phi(w), dtype=float), w)

    return GFunctions(g1, g2, g3)


def _g3_from(g2, phi, w):
    """g3 = g2 + phi^2/W, as ``GFunctions.g3`` and every matrix estimate form it."""
    return g2 + phi * (phi / w)


def _kernel_terms(fam: ShrinkageFamily, dims: ProblemDims, w):
    """(g1(W), g2(W), phi(W)) for a float array w, one evaluation of each."""
    gf = g_functions(fam, dims)
    return tuple(np.asarray(v, dtype=float) for v in (gf.g1(w), gf.g2(w), fam.phi(w)))


def _a_from(g1, g2, phi, w, dims: ProblemDims):
    return (dims.n / dims.p) * (dims.p * g1 - g2 - phi * phi / w)


def a_of_w(fam: ShrinkageFamily, dims: ProblemDims, w):
    """Scaled risk-reduction kernel a(W) = (n/p)(p g1(W) - g2(W) - phi^2(W)/W).

    The unbiased risk estimate is pS(1 - a(W))/n, so a(W) carries the whole
    data-dependence of the estimate beyond the pS/n baseline.
    """
    w = np.asarray(w, dtype=float)
    return _a_from(*_kernel_terms(fam, dims, w), w, dims)


def _matrix_parts_from(g1, g2, phi, w, dims: ProblemDims):
    """(1/n - g1(W), g3(W)) from the kernel terms at W: the isotropic and axial
    parts of the unbiased matrix estimate, whose factors are iso and iso + g3."""
    return 1.0 / dims.n - g1, _g3_from(g2, phi, w)


@lru_cache(maxsize=32)
def _kernel_at(fam: ShrinkageFamily, dims: ProblemDims, w: float):
    """(a(W), 1/n - g1(W), g3(W)) at one W, as floats: the row of a one-row
    block, so bit for bit what the block paths give that W, from one
    evaluation of g1, g2 and phi; memoised, so one observation's estimates
    share it. A kernel that is not finite (W so small that c/W overflows)
    is refused."""
    row = np.array([w])
    with np.errstate(all="ignore"):
        terms = _kernel_terms(fam, dims, row)
        kernel = (_a_from(*terms, row, dims)[0],
                  *(v[0] for v in _matrix_parts_from(*terms, row, dims)))
    kernel = tuple(map(float, kernel))
    if not all(map(math.isfinite, kernel)):
        raise ValueError(f"the unbiased kernel at W = {w!r} is not finite")
    return kernel


def _observed_kernel(obs: Observation, fam: ShrinkageFamily, dims: ProblemDims):
    """(pS(1 - a(W))/n, 1/n - g1(W), g3(W)) for one observation: the unbiased
    scalar estimate and matrix parts that every single-observation estimate
    clamps."""
    if not obs.w > 0:
        raise ValueError("the statistic W = ||x||^2 / s must be positive")
    a, iso, g3 = _kernel_at(fam, dims, obs.w)
    return dims.p * obs.s / dims.n * (1.0 - a), iso, g3


def _finite_mse(value: float, kind: str) -> float:
    """One observation's MSE estimate of ``kind``, refused if it overflows."""
    if not math.isfinite(value):
        raise ValueError(f"the {kind} MSE estimate overflows a double ({value})")
    return value


def _finite_matrix(m: AxialMatrix, kind: str) -> AxialMatrix:
    """One observation's MSE matrix of ``kind``, refused if an eigenvalue overflows."""
    if not (math.isfinite(m.iso_eigenvalue) and math.isfinite(m.axis_eigenvalue)):
        raise ValueError(f"the {kind} MSE matrix overflows ({m.eigenvalues()[:2].tolist()})")
    return m


def _axial_estimate(obs: Observation, iso: float, g3: float, l_perp, l_axis) -> AxialMatrix:
    """S (l_perp I + axial u u') on the observation's axis, for factors
    (l_perp, l_axis) clamped from the unbiased (iso, iso + g3). Unclamped,
    axial is g3 itself, which l_axis - l_perp loses to cancellation when
    g3 << iso; clamped, it is l_axis - l_perp, so a factor clamped to 0
    leaves an eigenvalue of exactly 0."""
    l_perp, l_axis = float(l_perp), float(l_axis)
    axial = g3 if l_perp == iso and l_axis == iso + g3 else l_axis - l_perp
    return AxialMatrix(obs.x.size, obs.s, l_perp, axial, obs.axis)


def umvue_mse(obs: Observation, fam: ShrinkageFamily, dims: ProblemDims) -> float:
    """Unbiased estimate of the rule's risk, pS(1 - a(W))/n.

    Negative values are possible for small W; repairing that without
    giving up risk is exactly what the improved estimators, each a clamp
    of this estimate, are for. A value beyond a double raises ValueError.
    """
    return _finite_mse(_observed_kernel(obs, fam, dims)[0], "umvue")


def umvue_mse_matrix(obs: Observation, fam: ShrinkageFamily, dims: ProblemDims) -> AxialMatrix:
    """Unbiased estimate of the MSE matrix as an AxialMatrix.

    Components: scale S, isotropic part 1/n - g1(W), axial part g3(W) on
    u = x/||x||. Its trace equals ``umvue_mse`` up to rounding; an overflow raises ValueError.
    """
    _, iso, g3 = _observed_kernel(obs, fam, dims)
    return _finite_matrix(_axial_estimate(obs, iso, g3, iso, iso + g3), "umvue")
