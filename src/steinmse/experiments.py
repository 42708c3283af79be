"""Monte Carlo drivers for risk and coverage curves, and the constants tables.

All three curves walk one grid, ``_grid``: dims x family x noncentrality,
with replications in fixed-size blocks, each block from its own
counter-based stream. Every score reads X only through ||X||^2 and X'theta,
so one executor worker draws each block's per-row statistics
(S, W, ||X||^2, X'theta) straight from their joint law (``_draw``: three
length-m fills whatever p is, no (m, p) array of X), up to two blocks
ahead. The calling thread scores the blocks serially and sums their
partials in block order. The block layout depends only on the
configuration, and the worker changes no number, so a rerun yields
bit-identical tables. Competing estimators are always evaluated on the same
draws (paired design), which makes dominance comparisons sharp at modest
replication counts. The risk curves score them against the exact truth,
``true_risk`` and ``true_mse_matrix``, which involve no random draws, so the
diff columns hold estimator noise alone.

Each block evaluates the unbiased kernels once, and every estimator kind
is a clamp of them. Coverage curves take every confidence-set quantity
from the batch core in ``confidence``, once per block for all variants.

Tables serialize to CSV with a header row and 10-significant-digit
numbers; a curve's metadata also lists the constants it used, with their
provenance. ``write_tables`` drops that metadata as JSON, and a plot
script that consumes the CSVs.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import deque, namedtuple
from dataclasses import dataclass, field

import numpy as np

from .confidence import ConfidenceSpec, ConfidenceVariant, _set_geometry
from .distributions import RngStream
from .matrix_improved import (MatrixConstants, MatrixEstimatorKind, _clamp_eigen_parts,
                              matrix_constants, matrix_eigen_parts)
from .mse_improved import MseEstimatorKind, _clamp_mse, estimate_mse_at, shrinkage_constants
from .shrinkage import (ProblemDims, _family_kind, family_from_name, true_mse_matrix,
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
]

# Replications per stream; fixed so outputs depend only on the configuration.
BLOCK = 4096

# Fields of the 64-bit stream id below the 4-bit domain: (name, bits, shift).
_STREAM_FIELDS = (("family", 4, 56), ("dims", 8, 48), ("lambda", 16, 32), ("block", 32, 0))

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

    Each grid point puts theta = sqrt(lambda) (1, ..., 1) / sqrt(p): risks
    and coverages depend on theta only through the noncentrality, so its
    direction is fixed. threads and const_reps are ignored: blocks are
    drawn up to two ahead by one executor worker, scored serially and
    summed in block order, and the shrinkage and matrix constants involve
    no random draws. Both are still accepted for configurations written
    when they mattered. Building a configuration checks the family names
    and that the grid and block counts fit the stream-id fields.
    """

    dims_list: tuple = (ProblemDims(5, 5),)
    lambda_grid: tuple = tuple(float(v) for v in range(31))
    reps: int = 100_000
    seed: int = 0
    families: tuple = ("james-stein", "positive-part")
    estimator_kinds: tuple = _DEFAULT_MSE_KINDS
    matrix_kinds: tuple = _DEFAULT_MATRIX_KINDS
    threads: int = 1
    const_reps: int = 1_000_000

    def __post_init__(self):
        for name in ("dims_list", "families", "estimator_kinds", "matrix_kinds"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "lambda_grid", tuple(float(v) for v in self.lambda_grid))
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not all(0.0 <= lam < math.inf for lam in self.lambda_grid):
            raise ValueError("noncentrality values must be finite and nonnegative")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        RngStream(self.seed)  # the seed must name a stream: an integer in [0, 2**64)
        for name in self.families:
            _family_kind(name)
        counts = (len(self.families), len(self.dims_list), len(self.lambda_grid),
                  len(range(0, self.reps, BLOCK)))
        for (name, bits, _), count in zip(_STREAM_FIELDS, counts):
            if count > 1 << bits:
                raise ValueError(f"{count} {name} indices exceed the {bits}-bit stream field "
                                 f"(at most {1 << bits})")

    def metadata(self) -> dict:
        return {
            "dims": [[d.p, d.n] for d in self.dims_list],
            "lambda_grid": list(self.lambda_grid),
            "reps": self.reps,
            "seed": self.seed,
            "families": list(self.families),
            "estimator_kinds": [k.value for k in self.estimator_kinds],
            "matrix_kinds": [k.value for k in self.matrix_kinds],
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


class CoverageTable(CsvTable):
    """A coverage curve: ``CoverageRow``s, with the run's configuration and
    confidence variants in ``metadata``."""


def _stream(seed: int, domain: int, fam_idx: int = 0, dims_idx: int = 0,
            lam_idx: int = 0, block: int = 0) -> RngStream:
    """Pack the experiment coordinates into one 64-bit stream id; an index
    too wide for its field raises rather than reuse another's stream."""
    sid = domain << 60
    for (name, bits, shift), idx in zip(_STREAM_FIELDS, (fam_idx, dims_idx, lam_idx, block)):
        if not 0 <= idx < 1 << bits:
            raise ValueError(f"{name} index {idx} does not fit its {bits}-bit stream field")
        sid |= idx << shift
    return RngStream(seed, sid)


def _block_sizes(reps: int):
    return [min(BLOCK, reps - start) for start in range(0, reps, BLOCK)]


def _draw(g: np.random.Generator, m: int, theta: np.ndarray, n: int):
    """One block's row statistics (S, W, ||X||^2, X'theta) for m draws
    X ~ N(theta, I), drawn from their joint law rather than from X. With
    mu = ||theta||, t = X'theta/mu ~ N(mu, 1) and V = ||X||^2 - t^2 ~
    chi^2_{p-1} are independent of each other and of S ~ chi^2_n, so a block
    is three length-m fills in the order t, V, S whatever p is (V is 0 at
    p = 1), with ||X||^2 = t^2 + V and X'theta = mu t, exactly 0 at theta = 0."""
    p = theta.shape[0]
    mu = math.hypot(*theta)  # theta'theta would underflow for tiny theta
    t = mu + g.standard_normal(m)
    xx = t * t
    if p > 1:
        xx += g.chisquare(p - 1, m)
    s = g.chisquare(n, m)
    return s, xx / s, xx, mu * t


def _drawn(jobs):
    """Yield ``_draw(*args)`` for each ``args`` of ``jobs``, in order, drawn
    by one executor worker at most two blocks ahead. ``jobs`` runs on
    the calling thread, so the worker runs only numpy's array work (the
    three fills and the row arithmetic), which releases the GIL. A failed
    draw raises at its turn; closing the generator cancels the draws not
    yet started and joins the worker."""
    # Imported here, since it loads logging, which the CLI's import avoids.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(1, thread_name_prefix="steinmse-draw")
    try:
        ahead = deque()
        for args in jobs:
            ahead.append(pool.submit(_draw, *args))
            if len(ahead) > 2:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


_GridPoint = namedtuple("_GridPoint", ["dims", "fam_name", "fam", "consts", "lam", "theta"])


def _grid(cfg: ExperimentConfig, domain: int, constants, scorer) -> list:
    """[(point, total)] over the dims x family x noncentrality grid of ``cfg``.

    ``constants(family_name, fam, dims)``, when not None, supplies the
    constants once per (dims, family); ``scorer(point)`` returns the block
    score fn(s, w, xx, x_theta) of a block's row statistics (``_draw``).
    Each block comes from its own stream of ``domain`` (``_drawn``); the
    scores are summed in block order.
    """
    sizes = _block_sizes(cfg.reps)
    directions = [np.ones(dims.p) / math.sqrt(dims.p) for dims in cfg.dims_list]
    thetas = [[math.sqrt(lam) * d for lam in cfg.lambda_grid] for d in directions]
    blocks = _drawn(
        (_stream(cfg.seed, domain, fi, di, li, bi).generator(), m, thetas[di][li], dims.n)
        for di, dims in enumerate(cfg.dims_list) for fi in range(len(cfg.families))
        for li in range(len(cfg.lambda_grid)) for bi, m in enumerate(sizes))
    totals = []
    try:
        for di, dims in enumerate(cfg.dims_list):
            for fam_name in cfg.families:
                fam = family_from_name(fam_name, dims)
                consts = None if constants is None else constants(fam_name, fam, dims)
                for lam, theta in zip(cfg.lambda_grid, thetas[di]):
                    pt = _GridPoint(dims, fam_name, fam, consts, lam, theta)
                    score = scorer(pt)
                    totals.append((pt, np.sum(np.stack([score(*next(blocks)) for _ in sizes]),
                                              axis=0)))
    finally:
        blocks.close()
    return totals


def _constants_used(totals) -> list:
    """Per (family, dims) of a walk, the constants its points used, with
    their provenance, for the run metadata; of the beta moments only beta2
    enters an estimate. Empty when the run needed no constants."""
    used = {(pt.fam_name, pt.dims): pt.consts for pt, _ in totals if pt.consts is not None}
    return [{"family": name, "p": dims.p, "n": dims.n,
             **({"beta2": c.beta.beta2} if isinstance(c, MatrixConstants) else {}),
             **{k: v for k, v in vars(c).items() if k != "beta"}}
            for (name, dims), c in used.items()]


def _mean_and_stderr(total: float, total_sq: float, m: int):
    mean = total / m
    if m < 2:
        return mean, float("nan")
    var = max(total_sq - m * mean * mean, 0.0) / (m - 1)
    return mean, math.sqrt(var / m)


def _loss_stats(losses: list, base_idx):
    """Reduce per-kind loss arrays into (sum, sum^2, dsum, dsum^2) rows."""
    out = np.full((len(losses), 4), np.nan)
    for ki, lvals in enumerate(losses):
        out[ki, 0] = lvals.sum()
        out[ki, 1] = (lvals * lvals).sum()
        if base_idx is not None:
            d = lvals - losses[base_idx]
            out[ki, 2] = d.sum()
            out[ki, 3] = (d * d).sum()
    return out


def _risk_curve(cfg: ExperimentConfig, domain: int, kinds: tuple, umvue, constants, loss: str,
                losses_at) -> RiskTable:
    """One risk curve of ``kinds``: ``losses_at(point)`` returns the block
    score fn(s, w, xx, x_theta) of per-kind loss arrays. The diff columns
    pair each kind with the ``umvue`` kind, nan when it is not in the run."""
    base_idx = kinds.index(umvue) if umvue in kinds else None
    if not any(k.needs_constants for k in kinds):
        constants = None

    def scorer(pt):
        losses = losses_at(pt)
        return lambda *block: _loss_stats(losses(*block), base_idx)

    rows, totals = [], _grid(cfg, domain, constants, scorer)
    for pt, agg in totals:
        for ki, kind in enumerate(kinds):
            risk, stderr = _mean_and_stderr(agg[ki, 0], agg[ki, 1], cfg.reps)
            dmean, dse = _mean_and_stderr(agg[ki, 2], agg[ki, 3], cfg.reps)
            rows.append(RiskRow(pt.dims.p, pt.dims.n, pt.fam_name, pt.lam, kind.value, risk,
                                stderr, dmean, dse))
    meta = cfg.metadata()
    meta["loss"], meta["constants"] = loss, _constants_used(totals)
    return RiskTable("risk_curve", RiskRow._fields, rows, meta)


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

    def losses_at(pt):
        p, n = pt.dims.p, pt.dims.n
        r_true = true_risk(pt.fam, pt.dims, pt.lam)
        target = r_true if loss == "mse" else p - r_true

        def losses(s, w, _xx, _x_theta):
            base = estimate_mse_at(MseEstimatorKind.UMVUE, w, s, pt.fam, pt.dims)
            out = []
            for kind in cfg.estimator_kinds:
                est = _clamp_mse(kind, base, w, s, pt.dims, pt.consts)
                if loss == "reduction":
                    est = p * s / n - est
                out.append((est - target) ** 2)
            return out

        return losses

    return _risk_curve(cfg, _DOMAIN_MSE_CURVE, cfg.estimator_kinds, MseEstimatorKind.UMVUE,
                       lambda _name, fam, dims: shrinkage_constants(fam, dims), loss, losses_at)


def _matrix_loss(s, l_perp, l_axis, u_m_u, tr_m, tr_m2, p):
    """tr(Mhat - M)^2 with Mhat = s(l_perp I + (l_axis - l_perp) u u')."""
    tr_hat2 = s * s * ((p - 1.0) * l_perp * l_perp + l_axis * l_axis)
    tr_cross = s * (l_perp * tr_m + (l_axis - l_perp) * u_m_u)
    return tr_hat2 - 2.0 * tr_cross + tr_m2


def _matrix_constants_from(consts_map: dict | None):
    """The ``_grid`` constants hook: the precomputed entry when given."""
    def constants(fam_name, fam, dims):
        found = (consts_map or {}).get((fam_name, dims))
        return matrix_constants(fam, dims) if found is None else found
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

    def losses_at(pt):
        p, n, lam = pt.dims.p, pt.dims.n, pt.lam
        a, b = true_mse_matrix(pt.fam, pt.dims, lam)
        if loss == "reduction":
            a, b = 1.0 - a, -b
        tr_m = p * a + b * lam
        tr_m2 = p * a * a + 2.0 * a * b * lam + b * b * lam * lam

        def losses(s, w, xx, x_theta):
            u_m_u = a + b * x_theta * x_theta / xx
            unbiased = matrix_eigen_parts(MatrixEstimatorKind.UMVUE, w, pt.fam, pt.dims)
            out = []
            for kind in cfg.matrix_kinds:
                l_perp, l_axis = _clamp_eigen_parts(kind, *unbiased, w, pt.dims, pt.consts)
                if loss == "reduction":
                    l_perp, l_axis = 1.0 / n - l_perp, 1.0 / n - l_axis
                out.append(_matrix_loss(s, l_perp, l_axis, u_m_u, tr_m, tr_m2, p))
            return out

        return losses

    return _risk_curve(cfg, _DOMAIN_MATRIX_CURVE, cfg.matrix_kinds, MatrixEstimatorKind.UMVUE,
                       _matrix_constants_from(consts_map), loss, losses_at)


def run_coverage_curve(cfg: ExperimentConfig, variants: tuple | None = None,
                       consts_map: dict | None = None) -> CoverageTable:
    """Coverage and expected-volume curves for the confidence variants.

    Rows carry the empirical coverage (with binomial stderr), the mean
    volume, and the mean-volume ratio against C0 at the same grid point
    (nan when C0 is not among the variants). Rows carry no level, so a
    variant may appear only once. The default is every variant at the 95%
    level.
    """
    variants = (tuple(ConfidenceSpec(v) for v in ConfidenceVariant) if variants is None
                else tuple(variants))
    listed = [spec.variant for spec in variants]
    if len(set(listed)) < len(listed):
        raise ValueError("each confidence variant may appear only once: rows carry no level")
    c0_idx = listed.index(ConfidenceVariant.C0) if ConfidenceVariant.C0 in listed else None
    constants = (_matrix_constants_from(consts_map)
                 if any(v.matrix_kind is not None for v in variants) else None)

    def scorer(pt):
        def score(s, w, xx, x_theta):
            geos = _set_geometry(s, w, variants, pt.fam, pt.dims, pt.consts,
                                 (xx, x_theta, pt.theta @ pt.theta))
            volumes = {id(g.log_volume): g.log_volume for g in geos}  # C0 and C3 share one
            volumes = {key: np.exp(v).sum() for key, v in volumes.items()}
            return np.array([(g.covered.sum(), volumes[id(g.log_volume)]) for g in geos])
        return score

    rows, totals = [], _grid(cfg, _DOMAIN_COVERAGE, constants, scorer)
    for pt, agg in totals:
        c0_vol = None if c0_idx is None else agg[c0_idx, 1] / cfg.reps
        for vi, spec in enumerate(variants):
            cov = agg[vi, 0] / cfg.reps
            se = math.sqrt(max(cov * (1.0 - cov), 0.0) / cfg.reps)
            vol = agg[vi, 1] / cfg.reps
            ratio = float("nan") if c0_vol in (None, 0.0) else vol / c0_vol
            rows.append(CoverageRow(pt.dims.p, pt.dims.n, pt.fam_name, pt.lam,
                                    spec.variant.value, cov, se, vol, ratio))
    meta = cfg.metadata()
    meta["variants"] = [v.variant.value for v in variants]
    meta["levels"] = [v.level for v in variants]
    meta["constants"] = _constants_used(totals)
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
