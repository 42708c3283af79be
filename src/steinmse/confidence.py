"""Confidence ellipsoids centered at shrinkage estimates.

All variants share one geometry: the set of theta with
quadratic_form(center - theta) / p <= threshold, where the quadratic form
inverts an AxialMatrix shape exactly (O(p), no dense solves). The
baseline ``C0`` is the F-pivot ball around X; ``C3`` recenters it at the
shrinkage estimate; ``C1`` / ``C2`` reshape it with the positive-definite
MSE-matrix estimates; the starred variants keep the estimated shape and
rescale the threshold so that their volume is C0's by construction.

``_set_geometry`` computes the sets of a tuple of specs for m observations
from length-m arrays alone: S, W and, for membership, the row statistics
||x||^2 and x'theta. It makes each shape (one per matrix kind) and C0's
log-volume at each level (C3's and the starred sets' too) once. The coverage
engine calls it per block of draws; ``build_confidence_set`` is its m = 1 case.

Volumes include the p^{p/2} factor coming from the "/p" inside the Q
statistics; it is common to every variant, so volume ratios are
unaffected by that convention.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .distributions import f_quantile
from .matrix_improved import (MatrixConstants, MatrixEstimatorKind, _clamp_eigen_parts,
                              matrix_eigen_parts)
from .shrinkage import (Observation, ProblemDims, ShrinkageFamily, apply_estimator,
                        shrink_factors)
from .umvue import AxialMatrix, _axial_estimate, _observed_kernel

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
        """Closed-set membership of a finite length-p theta: quadratic form / p <= threshold."""
        return _contains(self.center, self.quadratic_radius, self.shape, theta)


def _contains(center, radius: float, shape: AxialMatrix, theta) -> bool:
    """Membership of theta in the set of these fields, for ``contains`` and
    for ``build_confidence_set`` before it builds the result: theta is
    checked here, the difference by ``quad_form_inv``."""
    theta = _vector(theta, shape.dim)
    if not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    return bool(quad_form_inv(shape, center - theta) / shape.dim <= radius)


def _require_positive_definite(m: AxialMatrix, context: str):
    if m.iso_eigenvalue <= 0:
        raise ValueError(f"{context}: isotropic eigenvalue {m.iso_eigenvalue:.6g} is not positive")
    if m.axis_eigenvalue <= 0:
        raise ValueError(f"{context}: axis eigenvalue {m.axis_eigenvalue:.6g} is not positive")


def _inv_quad(perp, tt, l_perp, l_axis, s):
    """d'M^{-1}d for M = s (l_perp I + (l_axis - l_perp) u u'), from
    perp = d'd - t^2 and tt = t^2, t = u'd."""
    return (perp / l_perp + tt / l_axis) / s


def _log_volume(logdet, c, p):
    """Log of the volume ``ellipsoid_volume`` describes, from log |M|."""
    return 0.5 * logdet + 0.5 * p * np.log(c * p * np.pi) - math.lgamma(0.5 * p + 1.0)


def _vector(d, p: int) -> np.ndarray:
    d = np.asarray(d, dtype=float).reshape(-1)
    if d.shape != (p,):
        raise ValueError(f"vector has length {d.shape[0]}, expected {p}")
    return d


def quad_form_inv(m: AxialMatrix, d) -> float:
    """d' M^{-1} d for an AxialMatrix M, computed in O(p).

    Uses the rank-one inverse: with t = u'd,
    d'M^{-1}d = ((||d||^2 - t^2)/iso + t^2/(iso+axial)) / scale.
    """
    d = _vector(d, m.dim)
    _require_positive_definite(m, "inverse quadratic form")
    t = float(m.axis.dot(d))
    return _inv_quad(float(d.dot(d)) - t * t, t * t, m.iso, m.iso + m.axial, m.scale)


def ellipsoid_volume(m: AxialMatrix, c: float) -> float:
    """Volume of { theta : (center-theta)' M^{-1} (center-theta) / p <= c }.

    Equals |M|^{1/2} (c p pi)^{p/2} / Gamma(p/2 + 1) for the AxialMatrix
    M, computed in log space. A volume beyond the largest double raises
    ValueError.
    """
    if not c > 0:
        raise ValueError("quadratic radius must be positive")
    _require_positive_definite(m, "ellipsoid volume")
    log_volume = _log_volume(m.logdet(), c, m.dim)
    if log_volume > math.log(sys.float_info.max):
        raise ValueError(f"the ellipsoid volume, exp({log_volume:.6g}), overflows a double")
    return float(np.exp(log_volume))


_SetGeometry = namedtuple("_SetGeometry", ["l_perp", "l_axis", "logdet", "c", "radius",
                                           "log_volume", "q", "covered"])


def _row_distances(f, xx, x_theta, theta_theta):
    """(||x - theta||^2, ||delta - theta||^2, u'(delta - theta)) per row for
    delta = f x and u = x/||x||, from xx = ||x||^2 and x_theta = x'theta."""
    two_x_theta, f_xx = 2.0 * x_theta, f * xx
    return (xx - two_x_theta + theta_theta, f * (f_xx - two_x_theta) + theta_theta,
            (f_xx - x_theta) / np.sqrt(xx))


def _set_geometry(s, w, specs: tuple, fam: ShrinkageFamily, dims: ProblemDims,
                  consts: MatrixConstants | None = None, rows=None, unbiased=None) -> list:
    """The sets of each spec in ``specs`` for s and w, (m,) arrays or, for
    one observation, float64 scalars, and, given ``rows``, the row
    statistics (||x||^2, x'theta, theta'theta); every
    variant but C0 is centred at delta = (1 - phi(W)/W) x.

    Returns one geometry per spec: the shape's eigenvalue factors and
    log-determinant, the F quantile c at the spec's level, the threshold
    (c, or (S/n) c / |M|^{1/p} for the starred variants, which makes their
    volume C0's), the log-volume and, given ``rows``, a matrix shape's
    quadratic form q and whether the set contains theta. A spec reuses the
    shape and q of an earlier spec of its kind; C0, C3 and the starred sets
    share C0's log-volume array at each level. The quantile comes from
    ``f_quantile``, which is memoised. Every matrix shape clamps
    ``unbiased``, the unbiased eigenvalue factors (l_perp, l_axis) at w,
    computed here unless given; a factor that is not positive is refused.
    """
    p, n, s_n = dims.p, dims.n, s / dims.n
    if rows is not None:  # d'd per center; u'd at delta, where every matrix shape sits
        dd_x, dd_delta, t = _row_distances(shrink_factors(fam, w), *rows)
        tt, ps = t * t, p * s
        perp = dd_delta - tt
    out, c0_log_volumes = [], {}
    for spec in specs:
        kind = spec.matrix_kind
        twin = next((g for prev, g in zip(specs, out) if prev.matrix_kind is kind), None)
        if twin is not None:
            l_perp, l_axis, logdet = twin.l_perp, twin.l_axis, twin.logdet
        elif kind is None:
            # M = (S/n) I: the quadratic form and log-determinant in closed form.
            l_perp = l_axis = np.full_like(s, 1.0 / n)
            logdet = p * np.log(s_n)
        else:
            if unbiased is None:
                if not w.min() > 0:
                    raise ValueError(f"variant {spec.variant.value}: W must be positive")
                unbiased = matrix_eigen_parts(MatrixEstimatorKind.UMVUE, w, fam, dims)
            l_perp, l_axis = _clamp_eigen_parts(kind, *unbiased, w, dims, consts)
            if not ((l_perp > 0) & (l_axis > 0)).all():
                raise ValueError(f"variant {spec.variant.value}: matrix estimate lost positive "
                                 "definiteness; check the certificates for these dimensions")
            logdet = (p - 1.0) * np.log(s * l_perp) + np.log(s * l_axis)
        c = f_quantile(spec.level, p, n)
        starred = spec.variant in (ConfidenceVariant.C1_STAR, ConfidenceVariant.C2_STAR)
        radius = s_n * c * np.exp(-logdet / p) if starred else c
        c0_volume = kind is None or starred  # C3 by its shape, C1*/C2* by their threshold
        if c0_volume and c not in c0_log_volumes:
            c0_log_volumes[c] = _log_volume(logdet if kind is None else p * np.log(s_n), c, p)
        log_volume = c0_log_volumes[c] if c0_volume else _log_volume(logdet, radius, p)
        covered = q = None
        if rows is not None and kind is None:
            covered = (dd_x if spec.variant is ConfidenceVariant.C0 else dd_delta) * n / ps <= c
        elif rows is not None:
            q = twin.q if twin is not None else _inv_quad(perp, tt, l_perp, l_axis, s) / p
            covered = q <= radius
        out.append(_SetGeometry(l_perp, l_axis, logdet, c, radius, log_volume, q, covered))
    return out


def build_confidence_set(cspec: ConfidenceSpec, obs: Observation, fam: ShrinkageFamily,
                         dims: ProblemDims, consts: MatrixConstants | None = None,
                         theta=None) -> ConfidenceResult:
    """Assemble the requested confidence set for one observation.

    The centre is x for C0 and the shrinkage estimate otherwise; shape and
    threshold are the m = 1 case of ``_set_geometry``. ``contains_truth``
    (given ``theta``) is that of the returned set, so it agrees with
    ``ConfidenceResult.contains`` on the boundary. The volume is the
    returned set's; a starred set's is C0's, taken from C0's shape (S/n) I
    and the level's quantile, so the two are equal. At x = 0 the axis is
    e1; matrix-shaped variants then raise.
    """
    center = (obs.x.copy() if cspec.variant is ConfidenceVariant.C0
              else apply_estimator(obs, fam, dims))
    if cspec.matrix_kind is None:  # the (S/n) I shape
        iso, g3, unbiased = 1.0 / dims.n, 0.0, None
    else:
        _, iso, g3 = _observed_kernel(obs, fam, dims)
        unbiased = (np.float64(iso), np.float64(iso + g3))
    g, = _set_geometry(np.float64(obs.s), np.float64(obs.w), (cspec,), fam, dims, consts,
                       unbiased=unbiased)
    shape = _axial_estimate(obs, iso, g3, g.l_perp, g.l_axis)
    radius = float(g.radius)
    starred = cspec.variant in (ConfidenceVariant.C1_STAR, ConfidenceVariant.C2_STAR)
    volume = (ellipsoid_volume(AxialMatrix(dims.p, obs.s, 1.0 / dims.n, 0.0, obs.axis), g.c)
              if starred else ellipsoid_volume(shape, radius))
    covered = None if theta is None else _contains(center, radius, shape, theta)
    return ConfidenceResult(center, radius, shape, volume, covered)
