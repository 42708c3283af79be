"""Improved estimates of a shrinkage rule's MSE matrix.

The unbiased matrix estimate loses definiteness for small W. The repairs
live in a two-parameter class that rescales the isotropic part by xi(W)
and the axial part by eta(W):

    M_hat(xi, eta) = S [ (1/n - g1 xi) I + (g1 xi - g1 eta + g3) u u' ],

so the two eigenvalue factors are l_perp = 1/n - g1 xi (multiplicity p-1)
and l_axis = 1/n - g1 eta + g3. ``XI0_ETA0`` caps both factors at zero
(nonnegative definite), while ``XI1_ETA1`` / ``XI2_ETA2`` come from
improving the complementary risk-reduction matrix and are strictly
positive definite under certificates driven by the moment constant beta2.
``XI*_TR`` variants additionally clamp xi from below at the admissibility
cap (1+W)/(n+p+1), the denominator printed in the truncation formulas.

The moment curves behind beta1 and beta2 are closed forms (incomplete
beta functions, all from one continued fraction) for the built-in
James-Stein and positive-part rules, and for custom families one
tanh-sinh quadrature each over the Beta law of W/(1+W), whose kernel takes
the whole node array at once. No constant involves random draws.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from ._rootfind import bracketed_root
from .distributions import ratio_expectation, ratio_partial_moments
from .shrinkage import (FamilyKind, Observation, ProblemDims, ShrinkageFamily,
                        _require_continuous_phi, _require_dims_match)
from .umvue import (AxialMatrix, _axial_estimate, _finite_matrix, _kernel_terms,
                    _matrix_parts_from, _observed_kernel, g_functions)

__all__ = [
    "MatrixEstimatorKind",
    "BetaConstants",
    "MatrixConstants",
    "b_of_w",
    "beta_j",
    "beta_constants",
    "solve_w_xi_eta",
    "gamma_xi_eta",
    "matrix_constants",
    "matrix_eigen_parts",
    "estimate_mse_matrix",
    "positive_definite_certified",
]


# The j at which both moment curves are scanned: 0..50, then tail checks at
# 100 and 200. A custom family's extremum at j >= 50 may lie beyond the scan.
_SCAN_BOUNDARY = 50
_BETA_SCAN_J = tuple(range(_SCAN_BOUNDARY + 1)) + (100, 200)


class MatrixEstimatorKind(enum.Enum):
    UMVUE = "umvue"
    XI0_ETA0 = "xi0"
    XI1_ETA1 = "xi1"
    XI2_ETA2 = "xi2"
    XI1_TR_ETA1 = "xi1-tr"
    XI2_TR_ETA2 = "xi2-tr"

    @property
    def needs_constants(self) -> bool:
        """Whether the estimate needs precomputed MatrixConstants."""
        return self in (MatrixEstimatorKind.XI1_ETA1, MatrixEstimatorKind.XI2_ETA2,
                        MatrixEstimatorKind.XI1_TR_ETA1, MatrixEstimatorKind.XI2_TR_ETA2)


@dataclass(frozen=True)
class BetaConstants:
    """Moment extremes behind the matrix certificates.

    beta1 is the infimum over j >= 0 of the first moment curve (its
    nonnegativity licenses the nonnegative-definite construction), beta2
    the supremum of the second (it scales every positive-definite
    construction). Per-j values (j, value) are kept so the curves can be
    replotted and audited; j is scanned over ``_BETA_SCAN_J`` (0..50 plus tail
    checks at 100 and 200), and an argument is the smallest scanned j within
    1e-12 (relative) of the extreme. For the built-in families both curves
    tend to 0 as j grows, so beta1 also takes that limit into account:
    argmin_j is None when the limit 0 is below every scanned value.
    method is "closed-form" for the built-in families and "quadrature"
    for custom ones.
    """

    beta1: float
    argmin_j: int | None
    beta2: float
    argmax_j: int
    per_j_beta1: tuple
    per_j_beta2: tuple
    method: str


@dataclass(frozen=True)
class MatrixConstants:
    """BetaConstants plus the roots and certificates derived from beta2.

    A ``None`` root means the corresponding threshold equation never
    crosses one, so that scaling is identically 1 (for the built-in
    James-Stein rule this happens on the eta side, where g3/g1 is the
    constant (p+2)/2). provenance is how they were computed, as
    ``BetaConstants.method``: "closed-form" or "quadrature".
    """

    beta: BetaConstants
    w_xi: float | None
    w_eta: float | None
    gamma_xi: float | None
    gamma_eta: float | None
    provenance: str


def b_of_w(fam: ShrinkageFamily, dims: ProblemDims, w):
    """Second-moment kernel 4 phi/W + (n+2) phi^2/W - 4 phi' - 4 phi phi'.

    A discontinuous phi raises ValueError, as in ``risk_reduction_integrand``.
    """
    _require_continuous_phi(fam)
    w = np.asarray(w, dtype=float)
    phi = np.asarray(fam.phi(w), dtype=float)
    dphi = np.asarray(fam.phi_prime(w), dtype=float)
    n = dims.n
    return 4.0 * phi / w + (n + 2.0) * phi * phi / w - 4.0 * dphi - 4.0 * phi * dphi


def beta_j(order: int, fam: ShrinkageFamily, dims: ProblemDims, j: int) -> float:
    """Moment over u ~ chi^2_{p+2j}, v ~ chi^2_n independent.

    order 1: E[ 2(p-1) phi(u/v)/(u/v) - (p+2j-1) b(u/v) / (p+2j) ]
    order 2: E[ 2 phi(u/v)/(u/v) - b(u/v) / (p+2j) ]

    Built-in families get the closed form; custom families get one
    quadrature over the Beta law of W/(1+W) (``ratio_expectation``).
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if int(j) != j or j < 0:
        raise ValueError("j must be a nonnegative integer")
    if fam.has_closed_forms:
        return _beta_j_closed_form(order, fam, dims, int(j))
    p, k = dims.p, dims.p + 2 * int(j)
    b_weight = (k - 1.0) / k if order == 1 else 1.0 / k
    phi_weight = 2.0 * (p - 1.0) if order == 1 else 2.0

    def kernel(w):
        phi_over_w = np.asarray(fam.phi(w), dtype=float) / w
        return phi_weight * phi_over_w - b_weight * b_of_w(fam, dims, w)

    return ratio_expectation(kernel, k, dims.n)


def _beta_j_closed_form(order: int, fam: ShrinkageFamily, dims: ProblemDims, j: int) -> float:
    """Exact moment of a built-in family from the partial moments of W = U/V.

    Below the kink c = (p-2)/(n+2) the positive-part rule has phi/W = 1 and
    b(W) = (n-2)W; above it phi/W = c/W and b(W) = (4c + (n+2)c^2)/W. The
    James-Stein rule is the upper branch everywhere, a cut at zero.
    """
    _require_dims_match(fam, dims)
    p, n, c = dims.p, dims.n, dims.shrink_constant
    k = p + 2 * j
    cut = c if fam.kind is FamilyKind.POSITIVE_PART else 0.0
    below, inv_above, w_below = ratio_partial_moments(k, n, cut)
    phi_over_w = below + c * inv_above
    b = (n - 2.0) * w_below + (4.0 * c + (n + 2.0) * c * c) * inv_above
    if order == 1:
        return 2.0 * (p - 1.0) * phi_over_w - (k - 1.0) / k * b
    return 2.0 * phi_over_w - b / k


def _first_within(per, extreme: float) -> int:
    """Smallest scanned j whose value is within 1e-12 (relative) of the
    extreme, so exact ties are not decided by rounding."""
    return next(j for j, v in per if abs(v - extreme) <= 1e-12 * abs(extreme))


def beta_constants(fam: ShrinkageFamily, dims: ProblemDims) -> BetaConstants:
    """Scan j over ``_BETA_SCAN_J`` (0..50 plus tail checks at 100 and 200)
    for the extremes of both moment curves.

    For the built-in families both curves tend to 0 as j -> infinity: with
    k = p + 2j, the James-Stein first curve is c n (p - 4 + (p+2)/k)/(k-2),
    and the positive-part kink terms vanish. So beta1 is the smaller of the
    scan minimum and 0. Custom families have no limit in hand, so a warning
    fires when one of their extrema lands on a scan boundary: the true
    extremum may then lie beyond the scanned range.
    """
    per1 = []
    per2 = []
    for j in _BETA_SCAN_J:
        per1.append((j, beta_j(1, fam, dims, j)))
        per2.append((j, beta_j(2, fam, dims, j)))
    beta1 = min(v for _, v in per1)
    beta2 = max(v for _, v in per2)
    argmin_j = _first_within(per1, beta1)
    argmax_j = _first_within(per2, beta2)
    exact = fam.has_closed_forms
    if exact and beta1 > 0.0:
        beta1, argmin_j = 0.0, None
    if not exact and argmin_j >= _SCAN_BOUNDARY:
        warnings.warn(
            f"first moment curve minimized at the scan boundary (j={argmin_j}); "
            "its infimum may lie beyond the scan", RuntimeWarning)
    if not exact and argmax_j >= _SCAN_BOUNDARY:
        warnings.warn(
            f"second moment curve maximized at the scan boundary (j={argmax_j}); "
            "its supremum may lie beyond the scan", RuntimeWarning)
    return BetaConstants(beta1, argmin_j, beta2, argmax_j, tuple(per1), tuple(per2),
                         "closed-form" if exact else "quadrature")


def solve_w_xi_eta(fam: ShrinkageFamily, dims: ProblemDims, beta2: float):
    """Roots (w_xi, w_eta) of the two threshold equations.

    w_xi solves  (1+W) beta2 / ((n+p+2) g1(W)) = 1,
    w_eta solves (g3(W) + (1+W) beta2 / (n+p+2)) / g1(W) = 1.

    Both go to the package's root solver from the bracket [1e-8, 1]. An
    entry is None when its left side exceeds one on the whole expanded
    bracket (no crossing): the corresponding scaling is then identically
    one. g1 must be nonincreasing for the crossing to be unique. For the
    James-Stein rule g3/g1 is the constant (p+2)/2, so the eta equation's
    left side never falls below (p+2)/2 > 1 and w_eta is None without a
    search.
    """
    if not beta2 > 0:
        raise ValueError("beta2 must be positive")
    p, n = dims.p, dims.n
    gf = g_functions(fam, dims)
    c = beta2 / (n + p + 2.0)

    def q_xi(w: float) -> float:
        return (1.0 + w) * c / float(np.asarray(gf.g1(w), dtype=float)) - 1.0

    def q_eta(w: float) -> float:
        g1 = float(np.asarray(gf.g1(w), dtype=float))
        g3 = float(np.asarray(gf.g3(w), dtype=float))
        return (g3 + (1.0 + w) * c) / g1 - 1.0

    w_eta = None if fam.kind is FamilyKind.JAMES_STEIN else bracketed_root(q_eta, 1e-8, 1.0)
    return bracketed_root(q_xi, 1e-8, 1.0), w_eta


def gamma_xi_eta(dims: ProblemDims, w_xi, w_eta, beta2: float):
    """Certificate values n (1 + root) beta2 / (n+p+2) for the two roots.

    Values at or below one certify positive definiteness of the first
    positive-definite construction. None roots propagate to None (that
    side is identically one and needs no certificate).
    """
    scale = dims.n * beta2 / (dims.n + dims.p + 2.0)
    gamma_xi = None if w_xi is None else scale * (1.0 + w_xi)
    gamma_eta = None if w_eta is None else scale * (1.0 + w_eta)
    return gamma_xi, gamma_eta


def matrix_constants(fam: ShrinkageFamily, dims: ProblemDims, *, reps=None,
                     rng=None) -> MatrixConstants:
    """Compute the beta extremes, threshold roots and certificates once.

    Every constant is a closed form or a deterministic quadrature, so
    ``reps`` and ``rng`` are ignored; they are still accepted, by keyword
    only, for callers written against the former Monte Carlo constants.
    """
    beta = beta_constants(fam, dims)
    w_xi, w_eta = solve_w_xi_eta(fam, dims, beta.beta2)
    gamma_xi, gamma_eta = gamma_xi_eta(dims, w_xi, w_eta, beta.beta2)
    return MatrixConstants(beta, w_xi, w_eta, gamma_xi, gamma_eta, beta.method)


def _clamp_eigen_parts(kind: MatrixEstimatorKind, l_perp, l_axis, w, dims: ProblemDims,
                       consts: MatrixConstants | None = None):
    """The eigenvalue factors of ``kind`` from the unbiased ones,
    l_perp = 1/n - g1 and l_axis = (1/n - g1) + g3.

    The xi/eta min/max definitions are applied directly to the eigenvalue
    factors, which is algebraically identical and makes the clamp values
    (0 for the nonnegative construction, the positive floors for the
    others) exact in floating point. The truncated kinds cap l_perp at
    (1+W)/(n+p+1), the constant printed in the truncation formulas.
    """
    if kind is MatrixEstimatorKind.UMVUE:
        return l_perp, l_axis
    p, n = dims.p, dims.n
    if kind is MatrixEstimatorKind.XI0_ETA0:
        # xi0 = max(min(1, 1/(n g1)), cap) and eta0 = min(1, (1/n + g3)/g1)
        # turn into exact clamps of the eigenvalue factors.
        l_perp, l_axis = np.maximum(l_perp, 0.0), np.maximum(l_axis, 0.0)
    elif consts is None:
        raise ValueError(f"{kind.value} requires precomputed matrix constants")
    elif kind in (MatrixEstimatorKind.XI1_ETA1, MatrixEstimatorKind.XI1_TR_ETA1):
        beta2 = consts.beta.beta2
        if consts.w_xi is not None:
            q = (1.0 + consts.w_xi) * beta2 / (n + p + 2.0)
            l_perp = np.maximum(l_perp, 1.0 / n - q)
        if consts.w_eta is not None:
            q_eta = (1.0 + consts.w_eta) * beta2 / (n + p + 2.0)
            l_axis = np.maximum(l_axis, 1.0 / n - q_eta)
    else:
        q = consts.beta.beta2 / (n + 2.0)
        l_perp = np.maximum(l_perp, 1.0 / n - q)
        l_axis = np.maximum(l_axis, 1.0 / n - q)
    if kind in (MatrixEstimatorKind.XI0_ETA0, MatrixEstimatorKind.XI1_TR_ETA1,
                MatrixEstimatorKind.XI2_TR_ETA2):  # the l_perp value forced by the xi truncation
        l_perp = np.minimum(l_perp, (1.0 + w) / (n + p + 1.0))
    return l_perp, l_axis


def matrix_eigen_parts(kind: MatrixEstimatorKind, w, fam: ShrinkageFamily, dims: ProblemDims,
                       consts: MatrixConstants | None = None):
    """Eigenvalue factors (l_perp, l_axis) of the chosen matrix estimate.

    The estimate is S (l_perp I + (l_axis - l_perp) u u'): l_perp has
    multiplicity p-1 and l_axis sits on the observed direction. Every kind
    is a clamp of the unbiased factors 1/n - g1 and 1/n - g1 + g3.
    """
    w = np.asarray(w, dtype=float)
    l_perp, g3 = _matrix_parts_from(*_kernel_terms(fam, dims, w), w, dims)
    return _clamp_eigen_parts(kind, l_perp, l_perp + g3, w, dims, consts)


def estimate_mse_matrix(kind: MatrixEstimatorKind, obs: Observation, fam: ShrinkageFamily,
                        dims: ProblemDims, consts: MatrixConstants | None = None) -> AxialMatrix:
    """MSE-matrix estimate of the requested kind as an AxialMatrix, refused if it overflows."""
    _, iso, g3 = _observed_kernel(obs, fam, dims)
    parts = _clamp_eigen_parts(kind, iso, iso + g3, obs.w, dims, consts)
    return _finite_matrix(_axial_estimate(obs, iso, g3, *parts), kind.value)


def positive_definite_certified(kind: MatrixEstimatorKind, fam: ShrinkageFamily,
                                dims: ProblemDims, consts: MatrixConstants) -> bool:
    """Analytic sufficient conditions for strict positive definiteness.

    When the eta scaling is identically one (None root), the axis factor is
    1/n - g1 + g3, so g3 >= g1 is verified on a grid instead.
    """
    if not kind.needs_constants:
        return False
    n = dims.n

    def eta_side_ok() -> bool:
        if consts.w_eta is not None:
            return consts.gamma_eta < 1.0
        grid = np.geomspace(1e-6, 1e6, 2001)
        gf = g_functions(fam, dims)
        g1 = np.asarray(gf.g1(grid), dtype=float)
        g3 = np.asarray(gf.g3(grid), dtype=float)
        return bool(np.all(g3 >= g1))

    if kind in (MatrixEstimatorKind.XI1_ETA1, MatrixEstimatorKind.XI1_TR_ETA1):
        if consts.w_xi is None:
            return False
        return bool(consts.gamma_xi < 1.0 and eta_side_ok())
    # XI2 kinds: both eigenvalue factors are bounded below by
    # 1/n - beta2/(n+2), whichever branch the min/max picks.
    return bool(consts.beta.beta2 / (n + 2.0) < 1.0 / n)
