"""Output checks for the benchmark workloads.

Every check recomputes its expectation along a route that shares no code
with the library (closed forms, ``scipy.stats.f.ppf``, dense
``numpy.linalg.solve``), or tests a property the method must have. Each
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.special import gammaln
from scipy.stats import f as f_dist

RISK_HEADER = ["p", "n", "family", "lam", "kind", "risk", "stderr", "diff_vs_umvue",
               "diff_stderr"]
COVERAGE_HEADER = ["p", "n", "family", "lam", "variant", "coverage", "stderr", "mean_volume",
                   "volume_ratio_vs_c0"]

# Relative tolerance for identities that hold exactly up to rounding.
_EXACT = 1e-10


def shrink_phi(family: str, w: float, p: int, n: int) -> float:
    """phi(W) of the two built-in rules, from their definitions."""
    k = (p - 2) / (n + 2)
    if family == "james-stein":
        return k
    if family == "positive-part":
        return min(w, k)
    raise ValueError(f"no closed form for family {family!r}")


def check_point(point, x, s: float, family: str, p: int, n: int) -> list:
    """The point estimate equals (1 - phi(W)/W) x."""
    x = np.asarray(x, dtype=float)
    w = float(x @ x) / s
    expected = (1.0 - shrink_phi(family, w, p, n) / w) * x
    point = np.asarray(point, dtype=float)
    if point.shape != expected.shape:
        return [f"point estimate has shape {point.shape}, expected {expected.shape}"]
    err = float(np.max(np.abs(point - expected)))
    if not err <= 1e-12 * max(1.0, float(np.max(np.abs(x)))):
        return [f"point estimate off the closed form by {err:.3e}"]
    return []


def mse_cap(x, s: float, p: int, n: int) -> float:
    """Admissibility cap pS(1+W)/(n+p+2) on any MSE estimate in the class."""
    x = np.asarray(x, dtype=float)
    return p * s * (1.0 + float(x @ x) / s) / (n + p + 2.0)


def check_psi(kind: str, value: float, x, s: float, p: int, n: int) -> list:
    """PSI estimates lie in [0, cap]; the untruncated psi1/psi2 are only
    bounded below; psi2-tr, psi1 and psi2 are strictly positive."""
    cap = mse_cap(x, s, p, n)
    problems = []
    if not math.isfinite(value):
        return [f"{kind} estimate {value!r} is not finite"]
    if kind in ("psi0", "psi1-tr", "psi2-tr") and value > cap * (1.0 + _EXACT):
        problems.append(f"{kind} estimate {value:.6g} exceeds the cap {cap:.6g}")
    if value < 0.0:
        problems.append(f"{kind} estimate {value:.6g} is negative")
    if kind in ("psi1", "psi2", "psi2-tr") and not value > 0.0:
        problems.append(f"{kind} estimate {value:.6g} is not strictly positive")
    return problems


def check_trace_identity(matrix_trace: float, scalar: float, s: float, p: int, n: int) -> list:
    """The trace of the UMVUE matrix equals the UMVUE scalar estimate."""
    if not abs(matrix_trace - scalar) <= _EXACT * (p * s / n):
        return [f"UMVUE matrix trace {matrix_trace:.12g} != scalar estimate {scalar:.12g}"]
    return []


def check_eigenvalues(kind: str, scale: float, iso: float, axial: float) -> list:
    """xi1/xi2 matrices are positive definite, xi0 nonnegative definite.

    The eigenvalues come from the matrix fields: scale*iso on the
    orthogonal complement of the axis and scale*(iso+axial) on it.
    """
    eigs = (scale * iso, scale * (iso + axial))
    if kind.startswith(("xi1", "xi2")) and not min(eigs) > 0.0:
        return [f"{kind} matrix is not positive definite (eigenvalues {eigs})"]
    if kind == "xi0" and not min(eigs) >= 0.0:
        return [f"xi0 matrix is not nonnegative definite (eigenvalues {eigs})"]
    return []


def c0_volume(s: float, p: int, n: int, level: float) -> float:
    """Volume of the F-pivot ball C0, from scipy's F quantile."""
    c = float(f_dist.ppf(level, p, n))
    return math.exp(0.5 * p * math.log(s / n) + 0.5 * p * math.log(c * p * math.pi)
                    - float(gammaln(0.5 * p + 1.0)))


def check_volume(variant: str, volume: float, s: float, p: int, n: int, level: float) -> list:
    """C0 and the starred sets have the C0 volume, to a relative 1e-9."""
    ref = c0_volume(s, p, n, level)
    if not abs(volume - ref) <= 1e-9 * ref:
        return [f"{variant} volume {volume:.12g} != C0 volume {ref:.12g}"]
    return []


def dense_quad_form(scale: float, iso: float, axial: float, axis, d) -> float:
    """d' M^{-1} d with M = scale (iso I + axial u u'), by a dense solve."""
    axis = np.asarray(axis, dtype=float)
    d = np.asarray(d, dtype=float)
    m = scale * (iso * np.eye(axis.shape[0]) + axial * np.outer(axis, axis))
    return float(d @ np.linalg.solve(m, d))


def check_quad_form(value: float, dense: float) -> list:
    """quad_form_inv agrees with the dense solve."""
    if not abs(value - dense) <= 1e-9 * max(abs(dense), 1e-300):
        return [f"quad_form_inv {value:.12g} != dense solve {dense:.12g}"]
    return []


def _read_csv(path: str, header: list) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        return [], [f"{path}: header {rows[0] if rows else None} != {header}"]
    return [dict(zip(header, r)) for r in rows[1:]], []


def check_risk_csv(path: str, kinds: tuple, n_lambda: int, dominators: tuple) -> list:
    """A risk-curve CSV: every risk finite, and each of ``dominators`` does
    not lose to the UMVUE (diff_vs_umvue <= 3 diff_stderr at every lambda)."""
    rows, problems = _read_csv(path, RISK_HEADER)
    if problems:
        return problems
    if len(rows) != len(kinds) * n_lambda or {r["kind"] for r in rows} != set(kinds):
        return [f"{path}: {len(rows)} rows of kinds {sorted({r['kind'] for r in rows})}"]
    for r in rows:
        if not (math.isfinite(float(r["risk"])) and math.isfinite(float(r["stderr"]))):
            problems.append(f"{path}: {r['kind']} risk at lam={r['lam']} is not finite")
        if r["kind"] in dominators:
            diff, se = float(r["diff_vs_umvue"]), float(r["diff_stderr"])
            if not diff <= 3.0 * se:
                problems.append(f"{path}: {r['kind']} loses to the UMVUE at lam={r['lam']} "
                                f"(diff {diff:.4g}, stderr {se:.4g})")
    return problems


def check_coverage_csv(path: str, variants: tuple, n_lambda: int, reps: int) -> tuple:
    """A coverage CSV: coverages are proportions of ``reps`` with their
    binomial stderr, and the starred volume ratios equal 1 within 1e-12.

    Returns (problems, c0_covered, c0_trials) so that the C0 coverage can
    be tested against the level over a whole run.
    """
    rows, problems = _read_csv(path, COVERAGE_HEADER)
    if problems:
        return problems, 0, 0
    if len(rows) != len(variants) * n_lambda or {r["variant"] for r in rows} != set(variants):
        return [f"{path}: {len(rows)} rows of variants {sorted({r['variant'] for r in rows})}"], 0, 0
    covered = 0
    for r in rows:
        cov, se = float(r["coverage"]), float(r["stderr"])
        hits = round(cov * reps)
        if not (0 <= hits <= reps and abs(cov - hits / reps) <= 1e-9):
            problems.append(f"{path}: {r['variant']} coverage {cov} is not a proportion of {reps}")
            continue
        binom_se = math.sqrt(cov * (1.0 - cov) / reps)
        if not abs(se - binom_se) <= 1e-8 * max(binom_se, 1e-12):
            problems.append(f"{path}: {r['variant']} stderr {se} is not the binomial "
                            f"stderr {binom_se:.10g} of coverage {cov}")
        if r["variant"] in ("c0", "c1*", "c2*"):
            ratio = float(r["volume_ratio_vs_c0"])
            if not abs(ratio - 1.0) <= 1e-12:
                problems.append(f"{path}: {r['variant']} volume ratio {ratio!r} is not 1 "
                                f"at lam={r['lam']}")
        if r["variant"] == "c0":
            covered += hits
    return problems, covered, reps * n_lambda


def check_c0_coverage(covered: int, trials: int, level: float) -> list:
    """C0 coverage lies within 4 binomial standard errors of the level.

    C0 is the exact F pivot, so its coverage is the level at every theta;
    the counts of a whole run are pooled into one test.
    """
    cov = covered / trials
    se = math.sqrt(level * (1.0 - level) / trials)
    if not abs(cov - level) <= 4.0 * se:
        return [f"C0 coverage {cov:.6f} over {trials} draws is more than 4 standard errors "
                f"({se:.2e}) from the level {level}"]
    return []
