"""Confidence ellipsoids centered at shrinkage estimates.

All variants share one geometry: the set of theta with
quadratic_form(center - theta) / p <= threshold, where the quadratic form
inverts an AxialMatrix shape exactly (O(p), no dense solves). The
baseline ``C0`` is the F-pivot ball around X; ``C3`` recenters it at the
shrinkage estimate; ``C1`` / ``C2`` reshape it with the positive-definite
MSE-matrix estimates; the starred variants rescale the threshold so their
volume equals C0's exactly while keeping the estimated shape.

``_set_geometry`` computes the sets for a block of m observations; the
coverage engine in ``experiments`` calls it per block of draws, and
``build_confidence_set`` is its m = 1 case.

Volumes include the p^{p/2} factor coming from the "/p" inside the Q
statistics; it is common to every variant, so volume ratios are
unaffected by that convention.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .distributions import f_quantile
from .matrix_improved import MatrixConstants, MatrixEstimatorKind, matrix_eigen_parts
from .shrinkage import Observation, ProblemDims, ShrinkageFamily, apply_estimator
from .umvue import AxialMatrix

__all__ = [
    "ConfidenceVariant",
    "ConfidenceSpec",
    "ConfidenceResult",
    "quad_form_inv",
    "ellipsoid_volume",
    "build_confidence_set",
]


class ConfidenceVariant(enum.Enum):
    C0 = "c0"
    C1 = "c1"
    C2 = "c2"
    C3 = "c3"
    C1_STAR = "c1*"
    C2_STAR = "c2*"


_VARIANT_MATRIX_KIND = {
    ConfidenceVariant.C1: MatrixEstimatorKind.XI1_TR_ETA1,
    ConfidenceVariant.C1_STAR: MatrixEstimatorKind.XI1_TR_ETA1,
    ConfidenceVariant.C2: MatrixEstimatorKind.XI2_TR_ETA2,
    ConfidenceVariant.C2_STAR: MatrixEstimatorKind.XI2_TR_ETA2,
}


@dataclass(frozen=True)
class ConfidenceSpec:
    """Which confidence set to build and at what level."""

    variant: ConfidenceVariant
    level: float = 0.95

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError("confidence level must lie strictly inside (0, 1)")

    @property
    def matrix_kind(self) -> MatrixEstimatorKind | None:
        """The estimator kind the variant's shape comes from: the first
        truncated positive-definite construction for the C1 family, the
        second for the C2 family, None for the (S/n) I shape of C0 and C3."""
        return _VARIANT_MATRIX_KIND.get(self.variant)


@dataclass(frozen=True)
class ConfidenceResult:
    """A built confidence set: center, threshold, shape, volume, membership."""

    center: np.ndarray
    quadratic_radius: float
    shape: AxialMatrix
    volume: float
    contains_truth: bool | None

    def contains(self, theta) -> bool:
        """Closed-set membership: quadratic form / p <= threshold."""
        d = self.center - np.asarray(theta, dtype=float)
        return bool(quad_form_inv(self.shape, d) / self.shape.dim <= self.quadratic_radius)


def _require_positive_definite(m: AxialMatrix, context: str):
    if m.iso_eigenvalue <= 0:
        raise ValueError(f"{context}: isotropic eigenvalue {m.iso_eigenvalue:.6g} is not positive")
    if m.axis_eigenvalue <= 0:
        raise ValueError(f"{context}: axis eigenvalue {m.axis_eigenvalue:.6g} is not positive")


def _inv_quad(dd, t, l_perp, l_axis, s):
    """d'M^{-1}d for M = s (l_perp I + (l_axis - l_perp) u u'), dd = d'd, t = u'd."""
    return ((dd - t * t) / l_perp + t * t / l_axis) / s


def _log_volume(logdet, c, p):
    """Log of the volume ``ellipsoid_volume`` describes, from log |M|."""
    return 0.5 * logdet + 0.5 * p * np.log(c * p * np.pi) - math.lgamma(0.5 * p + 1.0)


def quad_form_inv(m: AxialMatrix, d) -> float:
    """d' M^{-1} d for an AxialMatrix M, computed in O(p).

    Uses the rank-one inverse: with t = u'd,
    d'M^{-1}d = ((||d||^2 - t^2)/iso + t^2/(iso+axial)) / scale.
    """
    d = np.asarray(d, dtype=float).reshape(-1)
    if d.shape != (m.dim,):
        raise ValueError(f"vector has length {d.shape[0]}, expected {m.dim}")
    _require_positive_definite(m, "inverse quadratic form")
    return _inv_quad(float(d @ d), float(m.axis @ d), m.iso, m.iso + m.axial, m.scale)


def ellipsoid_volume(m: AxialMatrix, c: float) -> float:
    """Volume of { theta : (center-theta)' M^{-1} (center-theta) / p <= c }.

    Equals |M|^{1/2} (c p pi)^{p/2} / Gamma(p/2 + 1) for the AxialMatrix
    M, computed in log space.
    """
    if not c > 0:
        raise ValueError("quadratic radius must be positive")
    _require_positive_definite(m, "ellipsoid volume")
    return float(np.exp(_log_volume(m.logdet(), c, m.dim)))


_SetGeometry = namedtuple("_SetGeometry",
                          ["center", "l_perp", "l_axis", "radius", "log_volume", "covered"])


def _set_geometry(x, s, w, delta, cspec: ConfidenceSpec, fam: ShrinkageFamily,
                  dims: ProblemDims, consts: MatrixConstants | None = None,
                  theta=None) -> _SetGeometry:
    """The sets of ``cspec`` for x (m, p), s and w (m,), and the shrinkage
    estimates delta (m, p), which center every variant but C0.

    Returns the centers, the shapes' eigenvalue factors, the thresholds,
    the log-volumes and, given ``theta``, whether each set contains it. The
    threshold is the F quantile c at the requested level; the starred
    variants use (S/n) c / |M|^{1/p}, which makes their volume C0's.
    """
    p, n = dims.p, dims.n
    c = f_quantile(cspec.level, p, n)
    variant = cspec.variant
    center = x if variant is ConfidenceVariant.C0 else delta
    if cspec.matrix_kind is None:
        # M = (S/n) I: the quadratic form and log-determinant in closed form.
        l_perp = l_axis = np.full_like(s, 1.0 / n)
        logdet = p * np.log(s / n)
    else:
        if not np.all(w > 0):
            raise ValueError(f"variant {variant.value}: W must be positive")
        l_perp, l_axis = matrix_eigen_parts(cspec.matrix_kind, w, fam, dims, consts)
        if np.any(l_perp <= 0) or np.any(l_axis <= 0):
            raise ValueError(f"variant {variant.value}: matrix estimate lost positive "
                             "definiteness; check the certificates for these dimensions")
        logdet = (p - 1.0) * np.log(s * l_perp) + np.log(s * l_axis)
    if variant in (ConfidenceVariant.C1_STAR, ConfidenceVariant.C2_STAR):
        radius = (s / n) * c * np.exp(-logdet / p)
    else:
        radius = np.full_like(s, c)
    covered = None
    if theta is not None:
        d = center - theta
        dd = np.einsum("ij,ij->i", d, d)
        if cspec.matrix_kind is None:
            covered = dd * n / (p * s) <= c
        else:
            u = x / np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
            covered = _inv_quad(dd, np.einsum("ij,ij->i", d, u), l_perp, l_axis, s) / p <= radius
    return _SetGeometry(center, l_perp, l_axis, radius, _log_volume(logdet, radius, p), covered)


def build_confidence_set(cspec: ConfidenceSpec, obs: Observation, fam: ShrinkageFamily,
                         dims: ProblemDims, consts: MatrixConstants | None = None,
                         theta=None) -> ConfidenceResult:
    """Assemble the requested confidence set for one observation.

    Center, shape and threshold are the m = 1 case of ``_set_geometry``;
    volume and ``contains_truth`` (given ``theta``) are those of the
    returned set, so they agree with ``ConfidenceResult.contains`` on the
    boundary. At x = 0 the axis is e1; matrix-shaped variants then raise.
    """
    delta = (None if cspec.variant is ConfidenceVariant.C0
             else apply_estimator(obs, fam, dims)[None])
    g = _set_geometry(obs.x[None], np.array([obs.s]), np.array([obs.w]), delta, cspec, fam,
                      dims, consts)
    norm_x = float(np.linalg.norm(obs.x))
    axis = obs.x / norm_x if norm_x > 0 else np.eye(dims.p)[0]
    l_perp, l_axis = float(g.l_perp[0]), float(g.l_axis[0])
    shape = AxialMatrix(dims.p, obs.s, l_perp, l_axis - l_perp, axis)
    radius = float(g.radius[0])
    result = ConfidenceResult(g.center[0].copy(), radius, shape,
                              ellipsoid_volume(shape, radius), None)
    return result if theta is None else replace(result, contains_truth=result.contains(theta))
