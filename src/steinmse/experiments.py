"""Monte Carlo drivers for risk and coverage curves, and the constants tables.

All three curves walk one grid, ``_grid``: dims x family x noncentrality,
with replications drawn serially in fixed-size blocks, each block from its
own counter-based stream, and block partials summed in block order. The
block layout depends only on the configuration, so a rerun yields
bit-identical tables. Competing estimators are always evaluated on the
same draws (paired design), which makes dominance comparisons sharp at
modest replication counts. The risk curves score them against the exact
truth, ``true_risk`` and ``true_mse_matrix``, which involve no random
draws, so the diff columns hold estimator noise alone.

Coverage curves take every confidence-set quantity from the batch core in
``confidence``; they only score each block and sum the results.

Tables serialize to CSV with a header row and 10-significant-digit
numbers; ``write_tables`` also drops a metadata JSON and a plot script
that consumes the CSVs.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .confidence import ConfidenceSpec, ConfidenceVariant, _set_geometry
from .distributions import RngStream
from .matrix_improved import (MatrixEstimatorKind, matrix_constants, matrix_eigen_parts)
from .mse_improved import MseEstimatorKind, estimate_mse_at, shrinkage_constants
from .shrinkage import (ProblemDims, family_from_name, shrink_factors, true_mse_matrix,
                        true_risk)

__all__ = [
    "BLOCK",
    "ExperimentConfig",
    "CsvTable",
    "RiskTable",
    "CoverageTable",
    "RiskRow",
    "CoverageRow",
    "run_mse_risk_curve",
    "run_matrix_risk_curve",
    "run_coverage_curve",
    "reproduce_tables",
    "write_tables",
    "write_plot_script",
    "default_confidence_variants",
]

# Replications per stream; fixed so outputs depend only on the configuration.
BLOCK = 4096

_DOMAIN_MSE_CURVE = 3
_DOMAIN_MATRIX_CURVE = 4
_DOMAIN_COVERAGE = 5

_DEFAULT_MSE_KINDS = (MseEstimatorKind.UMVUE, MseEstimatorKind.PSI0,
                      MseEstimatorKind.PSI1_TR, MseEstimatorKind.PSI2_TR)
_DEFAULT_MATRIX_KINDS = (MatrixEstimatorKind.UMVUE, MatrixEstimatorKind.XI0_ETA0,
                         MatrixEstimatorKind.XI1_TR_ETA1, MatrixEstimatorKind.XI2_TR_ETA2)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a Monte Carlo run depends on, seed included.

    theta_direction: "equal" distributes the signal evenly over the
    coordinates, "first-axis" puts it all on the first one, or pass an
    explicit vector. Risks depend on theta only through the noncentrality,
    which the direction-invariance test exploits. threads and const_reps
    are ignored: blocks run serially, and the shrinkage and matrix
    constants involve no random draws. Both are still accepted for
    configurations written when they mattered.
    """

    dims_list: tuple = (ProblemDims(5, 5),)
    lambda_grid: tuple = tuple(float(v) for v in range(31))
    reps: int = 100_000
    seed: int = 0
    families: tuple = ("james-stein", "positive-part")
    estimator_kinds: tuple = _DEFAULT_MSE_KINDS
    matrix_kinds: tuple = _DEFAULT_MATRIX_KINDS
    theta_direction: object = "equal"
    threads: int = 1
    const_reps: int = 1_000_000

    def __post_init__(self):
        object.__setattr__(self, "dims_list", tuple(self.dims_list))
        object.__setattr__(self, "lambda_grid", tuple(float(v) for v in self.lambda_grid))
        object.__setattr__(self, "families", tuple(self.families))
        object.__setattr__(self, "estimator_kinds", tuple(self.estimator_kinds))
        object.__setattr__(self, "matrix_kinds", tuple(self.matrix_kinds))
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not all(0.0 <= lam < math.inf for lam in self.lambda_grid):
            raise ValueError("noncentrality values must be finite and nonnegative")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        RngStream(self.seed)  # the seed must name a stream: an integer in [0, 2**64)

    def metadata(self) -> dict:
        return {
            "dims": [[d.p, d.n] for d in self.dims_list],
            "lambda_grid": list(self.lambda_grid),
            "reps": self.reps,
            "seed": self.seed,
            "families": list(self.families),
            "estimator_kinds": [k.value for k in self.estimator_kinds],
            "matrix_kinds": [k.value for k in self.matrix_kinds],
            "theta_direction": (self.theta_direction if isinstance(self.theta_direction, str)
                                else list(np.asarray(self.theta_direction, dtype=float))),
        }


RiskRow = namedtuple("RiskRow", ["p", "n", "family", "lam", "kind", "risk", "stderr",
                                 "diff_vs_umvue", "diff_stderr"])
CoverageRow = namedtuple("CoverageRow", ["p", "n", "family", "lam", "variant", "coverage",
                                         "stderr", "mean_volume", "volume_ratio_vs_c0"])


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.10g}"
    return str(v)


@dataclass
class CsvTable:
    """A named table with a header row; writes 10-significant-digit CSV.

    ``metadata`` describes the run behind the rows; ``write_tables`` writes
    it next to the CSV. The constants tables leave it empty.
    """

    name: str
    header: tuple
    rows: list
    metadata: dict = field(default_factory=dict)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.header)
            for row in self.rows:
                writer.writerow([_fmt_cell(v) for v in row])


class RiskTable(CsvTable):
    """A risk curve: ``RiskRow``s, with the run's configuration and loss in
    ``metadata``."""

    @property
    def loss(self) -> str:
        return self.metadata["loss"]


class CoverageTable(CsvTable):
    """A coverage curve: ``CoverageRow``s, with the run's configuration and
    confidence variants in ``metadata``."""


def _stream(seed: int, domain: int, fam_idx: int = 0, dims_idx: int = 0,
            lam_idx: int = 0, block: int = 0) -> RngStream:
    """Pack the experiment coordinates into one 64-bit stream id; an index
    too wide for its field raises rather than reuse another's stream."""
    sid = domain << 60
    for name, idx, bits, shift in (("family", fam_idx, 4, 56), ("dims", dims_idx, 8, 48),
                                   ("lambda", lam_idx, 16, 32), ("block", block, 32, 0)):
        if not 0 <= idx < 1 << bits:
            raise ValueError(f"{name} index {idx} does not fit its {bits}-bit stream field")
        sid |= idx << shift
    return RngStream(seed, sid)


def _direction(cfg: ExperimentConfig, p: int) -> np.ndarray:
    d = cfg.theta_direction
    if isinstance(d, str):
        if d == "equal":
            return np.ones(p) / math.sqrt(p)
        if d == "first-axis":
            out = np.zeros(p)
            out[0] = 1.0
            return out
        raise ValueError(f"unknown theta direction {d!r}")
    vec = np.asarray(d, dtype=float).reshape(-1)
    if vec.shape != (p,):
        raise ValueError(f"theta direction must have length {p}")
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("theta direction must be nonzero")
    return vec / norm


def _block_sizes(reps: int):
    nblocks = (reps + BLOCK - 1) // BLOCK
    return [min(BLOCK, reps - i * BLOCK) for i in range(nblocks)]


def _draw_block(stream: RngStream, m: int, theta: np.ndarray, n: int):
    g = stream.generator()
    x = theta + g.standard_normal((m, theta.shape[0]))
    s = g.chisquare(n, m)
    w = np.einsum("ij,ij->i", x, x) / s
    return x, s, w


_GridPoint = namedtuple("_GridPoint", ["dims", "fam_name", "fam", "consts", "lam", "theta",
                                       "block_sum"])


def _grid(cfg: ExperimentConfig, domain: int, constants=None):
    """Walk the dims x family x noncentrality grid of ``cfg`` in order.

    ``constants(family_name, fam, dims)``, when given, supplies the
    constants once per (dims, family). Each point carries ``block_sum(fn)``:
    the sum of fn(x, s, w) over the point's blocks, each drawn from its own
    stream of ``domain``, run serially and summed in block order.
    """
    sizes = _block_sizes(cfg.reps)
    for di, dims in enumerate(cfg.dims_list):
        for fi, fam_name in enumerate(cfg.families):
            fam = family_from_name(fam_name, dims)
            consts = None if constants is None else constants(fam_name, fam, dims)
            direction = _direction(cfg, dims.p)
            for li, lam in enumerate(cfg.lambda_grid):
                theta = math.sqrt(lam) * direction

                # The defaults pin this point's stream key and theta, so the
                # function stays right after the walk moves on.
                def block_sum(fn, key=(fi, di, li), theta=theta, n=dims.n):
                    return np.sum(np.stack([
                        fn(*_draw_block(_stream(cfg.seed, domain, *key, bi), m, theta, n))
                        for bi, m in enumerate(sizes)]), axis=0)

                yield _GridPoint(dims, fam_name, fam, consts, lam, theta, block_sum)


def _mean_and_stderr(total: float, total_sq: float, m: int):
    mean = total / m
    if m < 2:
        return mean, float("nan")
    var = max(total_sq - m * mean * mean, 0.0) / (m - 1)
    return mean, math.sqrt(var / m)


def _loss_stats(losses: list, base_idx):
    """Reduce per-kind loss arrays into (sum, sum^2, dsum, dsum^2) rows."""
    out = np.empty((len(losses), 4))
    base = losses[base_idx] if base_idx is not None else None
    for ki, lvals in enumerate(losses):
        out[ki, 0] = lvals.sum()
        out[ki, 1] = (lvals * lvals).sum()
        if base is None:
            out[ki, 2] = np.nan
            out[ki, 3] = np.nan
        else:
            d = lvals - base
            out[ki, 2] = d.sum()
            out[ki, 3] = (d * d).sum()
    return out


def _rows_from_stats(agg: np.ndarray, reps: int, kinds, pt: _GridPoint, rows: list):
    for ki, kind in enumerate(kinds):
        risk, stderr = _mean_and_stderr(agg[ki, 0], agg[ki, 1], reps)
        if np.isnan(agg[ki, 2]):
            dmean, dse = float("nan"), float("nan")
        else:
            dmean, dse = _mean_and_stderr(agg[ki, 2], agg[ki, 3], reps)
        rows.append(RiskRow(pt.dims.p, pt.dims.n, pt.fam_name, pt.lam, kind.value, risk, stderr,
                            dmean, dse))


def run_mse_risk_curve(cfg: ExperimentConfig, loss: str = "mse") -> RiskTable:
    """Risk curves of the scalar MSE estimators under the chosen loss.

    loss="mse": squared error of the estimate against the true risk.
    loss="reduction": squared error of the complementary reduction
    estimate pS/n - estimate against the true reduction p - risk.

    Every estimator kind sees the same draws; the diff columns hold the
    per-replication mean loss difference against the unbiased estimator
    and its standard error (nan when the unbiased kind is not in the run).
    """
    if loss not in ("mse", "reduction"):
        raise ValueError("loss must be 'mse' or 'reduction'")
    kinds = cfg.estimator_kinds
    try:
        base_idx = kinds.index(MseEstimatorKind.UMVUE)
    except ValueError:
        base_idx = None
    constants = ((lambda _name, fam, dims: shrinkage_constants(fam, dims))
                 if any(k.needs_constants for k in kinds) else None)
    rows: list = []
    for pt in _grid(cfg, _DOMAIN_MSE_CURVE, constants):
        p, n = pt.dims.p, pt.dims.n
        r_true = true_risk(pt.fam, pt.dims, pt.lam)
        target = r_true if loss == "mse" else p - r_true

        def score(x, s, w):
            losses = []
            for kind in kinds:
                est = np.asarray(estimate_mse_at(kind, w, s, pt.fam, pt.dims, pt.consts))
                if loss == "reduction":
                    est = p * s / n - est
                losses.append((est - target) ** 2)
            return _loss_stats(losses, base_idx)

        _rows_from_stats(pt.block_sum(score), cfg.reps, kinds, pt, rows)
    meta = cfg.metadata()
    meta["loss"] = loss
    return RiskTable("risk_curve", RiskRow._fields, rows, meta)


def _matrix_loss(s, l_perp, l_axis, u_m_u, tr_m, tr_m2, p):
    """tr(Mhat - M)^2 with Mhat = s(l_perp I + (l_axis - l_perp) u u')."""
    tr_hat2 = s * s * ((p - 1.0) * l_perp * l_perp + l_axis * l_axis)
    tr_cross = s * (l_perp * tr_m + (l_axis - l_perp) * u_m_u)
    return tr_hat2 - 2.0 * tr_cross + tr_m2


def _matrix_constants_from(consts_map: dict | None):
    """The ``_grid`` constants hook: the precomputed entry when given."""
    def constants(fam_name, fam, dims):
        if consts_map is not None and (fam_name, dims) in consts_map:
            return consts_map[(fam_name, dims)]
        return matrix_constants(fam, dims)
    return constants


def run_matrix_risk_curve(cfg: ExperimentConfig, loss: str = "matrix",
                          consts_map: dict | None = None) -> RiskTable:
    """Risk curves of the matrix estimators under trace-squared losses.

    loss="matrix": tr(estimate - M)^2 against the true MSE matrix M.
    loss="reduction": same for the complementary reduction matrices
    (S/n) I - estimate against I - M.

    The true M at each grid point is exact and axial in theta,
    a I + b theta theta' (``true_mse_matrix``), so I - M is too and every
    per-replication loss is O(p) trace algebra on the axial shapes.
    """
    if loss not in ("matrix", "reduction"):
        raise ValueError("loss must be 'matrix' or 'reduction'")
    kinds = cfg.matrix_kinds
    try:
        base_idx = kinds.index(MatrixEstimatorKind.UMVUE)
    except ValueError:
        base_idx = None
    constants = (_matrix_constants_from(consts_map)
                 if any(k.needs_constants for k in kinds) else None)
    rows: list = []
    for pt in _grid(cfg, _DOMAIN_MATRIX_CURVE, constants):
        p, n, lam, theta = pt.dims.p, pt.dims.n, pt.lam, pt.theta
        a, b = true_mse_matrix(pt.fam, pt.dims, lam)
        if loss == "reduction":
            a, b = 1.0 - a, -b
        tr_m = p * a + b * lam
        tr_m2 = p * a * a + 2.0 * a * b * lam + b * b * lam * lam

        def score(x, s, w):
            x_theta = x @ theta
            u_m_u = a + b * x_theta * x_theta / np.einsum("ij,ij->i", x, x)
            losses = []
            for kind in kinds:
                l_perp, l_axis = matrix_eigen_parts(kind, w, pt.fam, pt.dims, pt.consts)
                if loss == "reduction":
                    l_perp, l_axis = 1.0 / n - l_perp, 1.0 / n - l_axis
                losses.append(_matrix_loss(s, l_perp, l_axis, u_m_u, tr_m, tr_m2, p))
            return _loss_stats(losses, base_idx)

        _rows_from_stats(pt.block_sum(score), cfg.reps, kinds, pt, rows)
    meta = cfg.metadata()
    meta["loss"] = loss
    return RiskTable("risk_curve", RiskRow._fields, rows, meta)


def default_confidence_variants() -> tuple:
    """Every confidence variant at the 95% level."""
    return tuple(ConfidenceSpec(v) for v in ConfidenceVariant)


def run_coverage_curve(cfg: ExperimentConfig, variants: tuple | None = None,
                       consts_map: dict | None = None) -> CoverageTable:
    """Coverage and expected-volume curves for the confidence variants.

    Rows carry the empirical coverage (with binomial stderr), the mean
    volume, and the mean-volume ratio against C0 at the same grid point
    (nan when C0 is not among the variants).
    """
    variants = default_confidence_variants() if variants is None else tuple(variants)
    constants = (_matrix_constants_from(consts_map)
                 if any(v.matrix_kind is not None for v in variants) else None)
    rows: list = []
    for pt in _grid(cfg, _DOMAIN_COVERAGE, constants):

        def score(x, s, w):
            delta = shrink_factors(pt.fam, w)[:, None] * x
            out = np.empty((len(variants), 2))
            for vi, spec in enumerate(variants):
                geo = _set_geometry(x, s, w, delta, spec, pt.fam, pt.dims, pt.consts, pt.theta)
                out[vi, 0] = geo.covered.sum()
                out[vi, 1] = np.exp(geo.log_volume).sum()
            return out

        agg = pt.block_sum(score)
        mean_vols = {variants[vi].variant: agg[vi, 1] / cfg.reps
                     for vi in range(len(variants))}
        c0_vol = mean_vols.get(ConfidenceVariant.C0)
        for vi, spec in enumerate(variants):
            cov = agg[vi, 0] / cfg.reps
            se = math.sqrt(max(cov * (1.0 - cov), 0.0) / cfg.reps)
            vol = mean_vols[spec.variant]
            ratio = float("nan") if c0_vol in (None, 0.0) else vol / c0_vol
            rows.append(CoverageRow(pt.dims.p, pt.dims.n, pt.fam_name, pt.lam,
                                    spec.variant.value, cov, se, vol, ratio))
    meta = cfg.metadata()
    meta["variants"] = [v.variant.value for v in variants]
    meta["levels"] = [v.level for v in variants]
    return CoverageTable("coverage_curve", CoverageRow._fields, rows, meta)


def reproduce_tables(dims_list, families=("james-stein", "positive-part"),
                     j_max: int = 50) -> dict:
    """Regenerate the five constants tables.

    Every constant is a closed form (built-in families) or a deterministic
    quadrature, so the tables carry no standard errors and need no seed.
    Per-j beta curves are included as a sixth table so the moment curves
    can be replotted.

    Returns {name: CsvTable} with names table1_gamma, table2_w,
    table3_beta2, table4_gamma_xi_eta, table5_w_xi_eta, beta_per_j.
    """
    t1, t2, t3, t4, t5, tj = [], [], [], [], [], []
    for dims in dims_list:
        p, n = dims.p, dims.n
        for fam_name in families:
            fam = family_from_name(fam_name, dims)
            sc = shrinkage_constants(fam, dims)
            t1.append((fam_name, p, n, sc.gamma))
            t2.append((fam_name, p, n, sc.w_pn))
            mc = matrix_constants(fam, dims, j_max)
            t3.append((fam_name, p, n, mc.beta.beta2, mc.beta.argmax_j))
            if mc.gamma_xi is not None:
                t4.append(("gamma_xi", fam_name, p, n, mc.gamma_xi))
                t5.append(("w_xi", fam_name, p, n, mc.w_xi))
            if mc.gamma_eta is not None:
                t4.append(("gamma_eta", fam_name, p, n, mc.gamma_eta))
                t5.append(("w_eta", fam_name, p, n, mc.w_eta))
            for order, per in ((1, mc.beta.per_j_beta1), (2, mc.beta.per_j_beta2)):
                for j, value in per:
                    tj.append((fam_name, p, n, order, j, value))
    return {
        "table1_gamma": CsvTable("table1_gamma", ("family", "p", "n", "gamma"), t1),
        "table2_w": CsvTable("table2_w", ("family", "p", "n", "w_pn"), t2),
        "table3_beta2": CsvTable("table3_beta2", ("family", "p", "n", "beta2", "argmax_j"), t3),
        "table4_gamma_xi_eta": CsvTable("table4_gamma_xi_eta",
                                        ("quantity", "family", "p", "n", "value"), t4),
        "table5_w_xi_eta": CsvTable("table5_w_xi_eta",
                                    ("quantity", "family", "p", "n", "value"), t5),
        "beta_per_j": CsvTable("beta_per_j", ("family", "p", "n", "order", "j", "value"), tj),
    }


def write_tables(tables: dict, out_dir: str, metadata: dict) -> list:
    """Write each table as <name>.csv under out_dir, plus metadata.json."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, table in tables.items():
        path = os.path.join(out_dir, f"{name}.csv")
        table.write_csv(path)
        written.append(path)
    meta_path = os.path.join(out_dir, "metadata.json")
    with open(meta_path, "w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
    written.append(meta_path)
    return written


_PLOT_SCRIPT = '''"""Plot the CSV outputs sitting next to this script.

Usage: python plot_curves.py [directory]
Risk curves are grouped by (family, kind), coverage curves by variant.
"""
import csv
import glob
import os
import sys

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt


def load(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def main():
    base = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.abspath(__file__))
    for path in glob.glob(os.path.join(base, "*.csv")):
        rows = load(path)
        if not rows:
            continue
        name = os.path.splitext(os.path.basename(path))[0]
        fields = rows[0].keys()
        fig, ax = plt.subplots()
        if {"lam", "kind", "risk"} <= set(fields):
            series = sorted({(r["family"], r["kind"]) for r in rows})
            for fam, kind in series:
                pts = [(float(r["lam"]), float(r["risk"])) for r in rows
                       if r["family"] == fam and r["kind"] == kind]
                pts.sort()
                ax.plot([a for a, _ in pts], [b for _, b in pts], label=f"{fam}/{kind}")
            ax.set_xlabel("noncentrality")
            ax.set_ylabel("estimated risk")
        elif {"lam", "variant", "coverage"} <= set(fields):
            for variant in sorted({r["variant"] for r in rows}):
                pts = sorted((float(r["lam"]), float(r["coverage"])) for r in rows
                             if r["variant"] == variant)
                ax.plot([a for a, _ in pts], [b for _, b in pts], label=variant)
            ax.axhline(0.95, color="gray", linestyle=":")
            ax.set_xlabel("noncentrality")
            ax.set_ylabel("coverage")
        else:
            plt.close(fig)
            continue
        ax.legend(fontsize=8)
        ax.set_title(name)
        fig.savefig(os.path.join(base, name + ".png"), dpi=150)
        plt.close(fig)
        print("plotted", name)


if __name__ == "__main__":
    main()
'''


def write_plot_script(out_dir: str) -> str:
    """Drop a self-contained matplotlib script that plots the CSVs."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "plot_curves.py")
    with open(path, "w") as fh:
        fh.write(_PLOT_SCRIPT)
    return path
