"""Monte Carlo drivers for risk and coverage curves, and the constants tables.

All three curves walk one grid, ``_grid``: dims x family x noncentrality,
with replications in fixed-size blocks, each block from its own named
stream (``RngStream``). A curve hands the grid one set-up per (family,
dims), which makes the constants and the exact truth that point needs and
refuses a point it cannot score (coverage refuses a matrix shape without
its positive-definiteness certificate); every set-up runs before the
first block is drawn. Every score reads X only through ||X||^2 and X'theta,
so a block is drawn as (Z, V, S), three length-m fills whatever p is, no
(m, p) array of X (``_draw``), and each grid point forms its per-row
statistics (S, W, ||X||^2, X'theta) from it with t = mu + Z
(``_row_statistics``). The risk curves draw each (dims, block) once and
score every (family, lambda) point on it (common random numbers); coverage
draws each point's blocks from its own streams, so its C0 rows stay
independent across the grid. Blocks are drawn and scored serially, one
block per dims at a time, and each point's partials are summed in block
order. The block layout depends only on the configuration, so a rerun
yields bit-identical tables. Competing estimators are always evaluated on
the same draws (paired design), which makes dominance comparisons sharp at
modest replication counts. The risk curves score them against the exact
truth, ``true_risk`` and ``true_mse_matrix``, which involve no random
draws, so the diff columns hold estimator noise alone.

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
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .confidence import ConfidenceSpec, ConfidenceVariant, _set_geometry
from .distributions import RngStream
from .matrix_improved import (MatrixConstants, MatrixEstimatorKind, _clamp_eigen_parts,
                              matrix_constants, matrix_eigen_parts, positive_definite_certified)
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
# Domains whose points share one draw per (dims, block). Not coverage: C0
# reads only ||X - theta||^2 = Z^2 + V and S, so shared draws would give
# every C0 row of a run the same count.
_SHARED_DRAWS = (_DOMAIN_MSE_CURVE, _DOMAIN_MATRIX_CURVE)

_DEFAULT_MSE_KINDS = (MseEstimatorKind.UMVUE, MseEstimatorKind.PSI0,
                      MseEstimatorKind.PSI1_TR, MseEstimatorKind.PSI2_TR)
_DEFAULT_MATRIX_KINDS = (MatrixEstimatorKind.UMVUE, MatrixEstimatorKind.XI0_ETA0,
                         MatrixEstimatorKind.XI1_TR_ETA1, MatrixEstimatorKind.XI2_TR_ETA2)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a Monte Carlo run depends on, seed included.

    Each grid point is a noncentrality lambda = theta'theta: risks and
    coverages depend on theta only through it, so the draws and scores read
    mu = sqrt(lambda) and lambda, and no theta vector is built. threads and
    const_reps are ignored: blocks are drawn and scored serially, and the
    constants involve no random draws. Both are still accepted for
    configurations written when they mattered. Building a configuration
    checks the family names, that no dims, family or noncentrality repeats
    (its rows could not be told apart) and that the grid and block counts
    fit the stream-id fields.
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
        keys = {"dims_list": self.dims_list, "families": tuple(map(_family_kind, self.families)),
                "lambda_grid": self.lambda_grid}
        for name, entries in keys.items():
            if len(set(entries)) < len(entries):
                raise ValueError(f"{name} lists an entry more than once")
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


def _draw(g: np.random.Generator, m: int, p: int, n: int):
    """One block's draws (Z, V, S) for m rows of X ~ N_p(theta, I), none of
    which depends on theta: t = X'theta/||theta|| = ||theta|| + Z, and
    V = ||X||^2 - t^2 ~ chi^2_{p-1} is independent of Z ~ N(0, 1) and of
    S ~ chi^2_n. Three length-m fills in that order whatever p is; V is 0,
    unfilled, at p = 1."""
    z = g.standard_normal(m)
    v = g.chisquare(p - 1, m) if p > 1 else 0.0
    return z, v, g.chisquare(n, m)


def _row_statistics(mu: float, z, v, s):
    """The row statistics (S, W, ||X||^2, X'theta) of the draws (Z, V, S) at
    ||theta|| = mu: t = mu + Z, ||X||^2 = t^2 + V and X'theta = mu t,
    exactly 0 at mu = 0. No direction of theta enters."""
    t = mu + z
    xx = t * t
    xx += v
    return s, xx / s, xx, mu * t


def _grid(cfg: ExperimentConfig, domain: int, setup) -> tuple:
    """Walk the dims x family x noncentrality grid of ``cfg``.

    ``setup(family_name, fam, dims)`` returns (constants, score): the
    constants the scores use (None if none) and score(lambda_index), the
    block score fn(s, w, xx, x_theta) of a block's row statistics
    (``_row_statistics``) at that noncentrality. Every set-up runs, once per
    (dims, family), before the first block is drawn, so a set-up that
    refuses its point stops the run before any work on the blocks.

    Within each dims the blocks are outermost. A ``_SHARED_DRAWS`` domain
    draws each block once, from stream (dims, block), for every (family,
    lambda) point; another draws each point's block from stream (family,
    dims, lambda, block). Each point sums its partials in block order.

    Returns ([(dims, family_name, lambda, total)] in walk order, and the
    metadata record: per (family, dims), the constants used, with their
    provenance; of the beta moments only beta2 enters an estimate).
    """
    walk = [(dims, name) for dims in cfg.dims_list for name in cfg.families]
    setups = [setup(name, family_from_name(name, dims), dims) for dims, name in walk]
    used = {(name, dims): c for (dims, name), (c, _) in zip(walk, setups) if c is not None}
    mus = [math.sqrt(lam) for lam in cfg.lambda_grid]
    points = [(fi, li) for fi in range(len(cfg.families)) for li in range(len(mus))]
    totals = []
    for di, dims in enumerate(cfg.dims_list):
        scores = [setups[di * len(cfg.families) + fi][1](li) for fi, li in points]
        parts = [[] for _ in points]
        for bi, m in enumerate(_block_sizes(cfg.reps)):
            shared = (_draw(_stream(cfg.seed, domain, 0, di, 0, bi).generator(), m, dims.p,
                            dims.n) if domain in _SHARED_DRAWS else None)
            for (fi, li), at, part in zip(points, scores, parts):
                block = shared if shared is not None else _draw(
                    _stream(cfg.seed, domain, fi, di, li, bi).generator(), m, dims.p, dims.n)
                part.append(at(*_row_statistics(mus[li], *block)))
        totals += [(dims, cfg.families[fi], cfg.lambda_grid[li], np.sum(np.stack(part), axis=0))
                   for (fi, li), part in zip(points, parts)]
    return totals, [{"family": name, "p": dims.p, "n": dims.n,
                     **({"beta2": c.beta.beta2} if isinstance(c, MatrixConstants) else {}),
                     **{k: v for k, v in vars(c).items() if k != "beta"}}
                    for (name, dims), c in used.items()]


def _mean_and_stderr(total: float, total_sq: float, m: int):
    mean = total / m
    if m < 2:
        return mean, float("nan")
    var = max(total_sq - m * mean * mean, 0.0) / (m - 1)
    return mean, math.sqrt(var / m)


def _loss_stats(losses: list, kinds: tuple, umvue):
    """Reduce the loss arrays of ``kinds`` into (sum, sum^2, dsum, dsum^2)
    rows; the d columns pair each kind with the ``umvue`` kind, nan when it
    is not in the run."""
    out = np.full((len(losses), 4), np.nan)
    base = losses[kinds.index(umvue)] if umvue in kinds else None
    for ki, lvals in enumerate(losses):
        out[ki, 0] = lvals.sum()
        out[ki, 1] = (lvals * lvals).sum()
        if base is not None:
            d = lvals - base
            out[ki, 2] = d.sum()
            out[ki, 3] = (d * d).sum()
    return out


def _risk_curve(cfg: ExperimentConfig, domain: int, kinds: tuple, loss: str,
                setup) -> RiskTable:
    """One risk curve of ``kinds`` on the ``_grid`` set-up ``setup``, whose
    block scores are ``_loss_stats`` rows."""
    rows, (totals, used) = [], _grid(cfg, domain, setup)
    for dims, name, lam, agg in totals:
        for ki, kind in enumerate(kinds):
            risk, stderr = _mean_and_stderr(agg[ki, 0], agg[ki, 1], cfg.reps)
            dmean, dse = _mean_and_stderr(agg[ki, 2], agg[ki, 3], cfg.reps)
            rows.append(RiskRow(dims.p, dims.n, name, lam, kind.value, risk, stderr, dmean, dse))
    meta = cfg.metadata()
    meta["loss"], meta["constants"] = loss, used
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
    needs_constants = any(k.needs_constants for k in cfg.estimator_kinds)

    def setup(_name, fam, dims):
        consts = shrinkage_constants(fam, dims) if needs_constants else None
        truth, p, n = true_risk(fam, dims, cfg.lambda_grid).tolist(), dims.p, dims.n

        def losses(target, s, w, _xx, _x_theta):
            base = estimate_mse_at(MseEstimatorKind.UMVUE, w, s, fam, dims)
            out = []
            for kind in cfg.estimator_kinds:
                est = _clamp_mse(kind, base, w, s, dims, consts)
                if loss == "reduction":
                    est = p * s / n - est
                out.append((est - target) ** 2)
            return _loss_stats(out, cfg.estimator_kinds, MseEstimatorKind.UMVUE)
        return consts, lambda li: partial(losses, truth[li] if loss == "mse" else p - truth[li])

    return _risk_curve(cfg, _DOMAIN_MSE_CURVE, cfg.estimator_kinds, loss, setup)


def _matrix_loss(s, l_perp, l_axis, u_m_u, tr_m, tr_m2, p):
    """tr(Mhat - M)^2 with Mhat = s(l_perp I + (l_axis - l_perp) u u')."""
    tr_hat2 = s * s * ((p - 1.0) * l_perp * l_perp + l_axis * l_axis)
    tr_cross = s * (l_perp * tr_m + (l_axis - l_perp) * u_m_u)
    return tr_hat2 - 2.0 * tr_cross + tr_m2


def _matrix_constants(consts_map: dict | None, fam_name: str, fam, dims: ProblemDims):
    """The matrix constants of (fam_name, dims): the ``consts_map`` entry
    when given, else computed."""
    found = (consts_map or {}).get((fam_name, dims))
    return matrix_constants(fam, dims) if found is None else found


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
    needs_constants = any(k.needs_constants for k in cfg.matrix_kinds)

    def setup(name, fam, dims):
        consts = _matrix_constants(consts_map, name, fam, dims) if needs_constants else None
        a_grid, b_grid = (v.tolist() for v in true_mse_matrix(fam, dims, cfg.lambda_grid))
        p, n = dims.p, dims.n

        def losses(li, s, w, xx, x_theta):
            a, b, lam = a_grid[li], b_grid[li], cfg.lambda_grid[li]
            if loss == "reduction":
                a, b = 1.0 - a, -b
            tr_m = p * a + b * lam
            tr_m2 = p * a * a + 2.0 * a * b * lam + b * b * lam * lam
            u_m_u = a + b * x_theta * x_theta / xx
            unbiased = matrix_eigen_parts(MatrixEstimatorKind.UMVUE, w, fam, dims)
            out = []
            for kind in cfg.matrix_kinds:
                l_perp, l_axis = _clamp_eigen_parts(kind, *unbiased, w, dims, consts)
                if loss == "reduction":
                    l_perp, l_axis = 1.0 / n - l_perp, 1.0 / n - l_axis
                out.append(_matrix_loss(s, l_perp, l_axis, u_m_u, tr_m, tr_m2, p))
            return _loss_stats(out, cfg.matrix_kinds, MatrixEstimatorKind.UMVUE)
        return consts, lambda li: partial(losses, li)

    return _risk_curve(cfg, _DOMAIN_MATRIX_CURVE, cfg.matrix_kinds, loss, setup)


def run_coverage_curve(cfg: ExperimentConfig, variants: tuple | None = None,
                       consts_map: dict | None = None) -> CoverageTable:
    """Coverage and expected-volume curves for the confidence variants.

    Rows carry the empirical coverage (with binomial stderr), the mean
    volume, and the mean-volume ratio against C0 at the same grid point
    (nan when C0 is not among the variants). Rows carry no level, so a
    variant may appear only once. The default is every variant at the 95%
    level. A variant whose matrix shape ``positive_definite_certified``
    does not certify at a (family, dims) of the grid is refused with
    ValueError before any block is drawn: without the certificate, some W
    makes that shape lose positive definiteness.
    """
    variants = (tuple(ConfidenceSpec(v) for v in ConfidenceVariant) if variants is None
                else tuple(variants))
    listed = [spec.variant for spec in variants]
    if len(set(listed)) < len(listed):
        raise ValueError("each confidence variant may appear only once: rows carry no level")
    c0_idx = listed.index(ConfidenceVariant.C0) if ConfidenceVariant.C0 in listed else None
    shaped = [spec for spec in variants if spec.matrix_kind is not None]

    def setup(name, fam, dims):
        consts = _matrix_constants(consts_map, name, fam, dims) if shaped else None
        for kind in dict.fromkeys(spec.matrix_kind for spec in shaped):
            if not positive_definite_certified(kind, fam, dims, consts):
                refused = ", ".join(s.variant.value for s in shaped if s.matrix_kind is kind)
                raise ValueError(f"variant {refused}: the {kind.value} shape is not certified "
                                 f"positive definite at p = {dims.p}, n = {dims.n} for the "
                                 f"{name} family")

        def score(lam, s, w, xx, x_theta):
            geos = _set_geometry(s, w, variants, fam, dims, consts, (xx, x_theta, lam))
            out, sums = np.empty((len(geos), 2)), {}  # C0, C3, C1*, C2*: one sum per level
            for vi, g in enumerate(geos):
                if id(g.log_volume) not in sums:
                    sums[id(g.log_volume)] = np.exp(g.log_volume).sum()
                out[vi] = np.count_nonzero(g.covered), sums[id(g.log_volume)]
            return out
        return consts, lambda li: partial(score, cfg.lambda_grid[li])

    rows, (totals, used) = [], _grid(cfg, _DOMAIN_COVERAGE, setup)
    for dims, name, lam, agg in totals:
        c0_vol = None if c0_idx is None else agg[c0_idx, 1] / cfg.reps
        for vi, spec in enumerate(variants):
            cov = agg[vi, 0] / cfg.reps
            se = math.sqrt(max(cov * (1.0 - cov), 0.0) / cfg.reps)
            vol = agg[vi, 1] / cfg.reps
            ratio = float("nan") if c0_vol in (None, 0.0) else vol / c0_vol
            rows.append(CoverageRow(dims.p, dims.n, name, lam, spec.variant.value, cov, se, vol,
                                    ratio))
    meta = cfg.metadata()
    meta["variants"] = [v.variant.value for v in variants]
    meta["levels"] = [v.level for v in variants]
    meta["constants"] = used
    return CoverageTable("coverage_curve", CoverageRow._fields, rows, meta)


def reproduce_tables(dims_list, families=("james-stein", "positive-part")) -> dict:
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
            mc = matrix_constants(fam, dims)
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
