"""Command-line front end: estimation, constants tables, experiment runs.

Subcommands: estimate, constants, risk-curve, coverage, canonicalize.
JSON outputs carry a schema version, echo every numeric flag and hold only
finite numbers; CSV runs drop a metadata.json next to the tables. Only the
Monte Carlo curves (risk-curve, coverage) draw random numbers, and they
require a seed, so every run is reproducible by construction. The
constants behind ``estimate`` and ``constants`` are closed forms or
quadratures. Exit codes: 0 success, 1 numerical failure (a non-finite
result included), 2 usage error (an unwritable output included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .confidence import ConfidenceSpec, ConfidenceVariant, build_confidence_set
from .experiments import (ExperimentConfig, reproduce_tables, run_coverage_curve,
                          run_matrix_risk_curve, run_mse_risk_curve, write_plot_script,
                          write_tables)
from .matrix_improved import MatrixEstimatorKind, estimate_mse_matrix, matrix_constants
from .mse_improved import MseEstimatorKind, estimate_mse, shrinkage_constants
from .shrinkage import (Observation, ProblemDims, _family_kind, apply_estimator,
                        canonicalize_regression, family_from_name)

_MSE_KINDS = {k.value: k for k in MseEstimatorKind}
_MATRIX_KINDS = {k.value: k for k in MatrixEstimatorKind}
_VARIANTS = {v.value: v for v in ConfidenceVariant}
_VARIANTS["c1star"] = ConfidenceVariant.C1_STAR
_VARIANTS["c2star"] = ConfidenceVariant.C2_STAR


class UsageError(Exception):
    """Bad flags or inputs; maps to exit code 2."""


def _check_args(args) -> None:
    """Reject flag values that no computation accepts, before any starts."""
    flags = vars(args)
    if "families" in flags:
        names = flags["families"].split(",")
    else:
        names = [flags["family"]] if "family" in flags else []
    try:
        for name in names:
            _family_kind(name)
        if "p" in flags:
            ProblemDims(args.p, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not flags.get("s", 1.0) > 0:
        raise UsageError("--s must be positive")
    if not 0.0 < flags.get("level", 0.5) < 1.0:
        raise UsageError("--level must lie strictly inside (0, 1)")
    if flags.get("reps", 1) < 1:
        raise UsageError("--reps must be at least 1")
    variants = [_VARIANTS.get(v.strip().lower(), v) for v in flags.get("variants", "").split(",")]
    if len(set(variants)) < len(variants):
        raise UsageError("--variants names a confidence variant more than once")
    if args.command in ("risk-curve", "coverage") and not 0 <= args.seed < 1 << 64:
        raise UsageError("--seed must lie in [0, 2**64)")


def _read_csv(path: str, column: bool) -> np.ndarray:
    """Numeric CSV, one row per nonblank line, as a matrix, or as a vector
    when ``column`` asks for a single-column file. Rows of unequal length
    are a usage error."""
    try:
        with open(path) as fh:
            rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path} is not a numeric CSV: {exc}") from exc
    if not rows:
        raise UsageError(f"{path} is empty")
    widths = sorted({len(row) for row in rows})
    if len(widths) > 1 or (column and widths != [1]):
        shape = "a single column" if column else "rows of equal length"
        raise UsageError(f"{path} has rows of {widths} values; expected {shape}")
    return np.array(rows)[:, 0] if column else np.array(rows)


def _spec_or_usage(name: str, level: float) -> ConfidenceSpec:
    variant = _VARIANTS.get(name.strip().lower())
    if variant is None:
        raise UsageError(f"unknown confidence variant {name!r}")
    return ConfidenceSpec(variant, level)


def _parse_dims_list(text: str) -> list:
    out = []
    for part in text.split(","):
        try:
            p_str, n_str = part.lower().split("x")
            out.append(ProblemDims(int(p_str), int(n_str)))
        except ValueError as exc:
            raise UsageError(f"bad dims entry {part!r}; expected like 5x5 ({exc})") from exc
    return out


def _parse_lambdas(text: str) -> list:
    """Either a comma list or start:stop:step (inclusive stop); every
    number must be finite and nonnegative."""
    is_range = ":" in text
    try:
        values = [float(v) for v in text.split(":" if is_range else ",")]
    except ValueError as exc:
        raise UsageError(f"bad --lambdas {text!r}: {exc}") from None
    if not all(0.0 <= v < float("inf") for v in values):
        raise UsageError(f"--lambdas must be finite and nonnegative, got {text!r}")
    if not is_range:
        return values
    if len(values) != 3:
        raise UsageError("lambda range must look like start:stop:step")
    start, stop, step = values
    if step <= 0:
        raise UsageError("lambda step must be positive")
    return list(np.arange(start, stop + 0.5 * step, step))


def _emit(payload: dict, out: str | None) -> None:
    """Print the payload, or write it to ``out``, as standard JSON: a
    non-finite number raises ValueError before anything is written."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_estimate(args) -> int:
    dims = ProblemDims(args.p, args.n)
    x = _read_csv(args.x, column=True)
    if x.shape != (dims.p,):
        raise UsageError(f"data vector has length {x.shape[0]}, expected p={dims.p}")
    fam = family_from_name(args.family, dims)
    try:
        obs = Observation(x, args.s)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    mse_kind = _MSE_KINDS[args.mse]
    matrix_kind = _MATRIX_KINDS[args.matrix]

    needs_sc = mse_kind.needs_constants
    needs_mc = matrix_kind.needs_constants
    cspec = None
    if args.confidence:
        cspec = _spec_or_usage(args.confidence, args.level)
        needs_mc = needs_mc or cspec.matrix_kind is not None

    sc = shrinkage_constants(fam, dims) if needs_sc else None
    mc = matrix_constants(fam, dims) if needs_mc else None

    point = apply_estimator(obs, fam, dims)
    mse_value = estimate_mse(mse_kind, obs, fam, dims, sc)
    matrix = estimate_mse_matrix(matrix_kind, obs, fam, dims, mc)
    payload = {
        "schema": 1,
        "inputs": {
            "p": dims.p, "n": dims.n, "s": obs.s, "family": fam.label,
            "mse": mse_kind.value, "matrix": matrix_kind.value,
            "seed": args.seed, "const_reps": args.const_reps,
            "x": list(map(float, x)),
        },
        "w": obs.w,
        "point_estimate": list(map(float, point)),
        "mse": {"kind": mse_kind.value, "value": mse_value},
        "mse_matrix": {
            "kind": matrix_kind.value,
            "scale": matrix.scale,
            "iso": matrix.iso,
            "axial": matrix.axial,
            "axis": list(map(float, matrix.axis)),
            "eigenvalues": list(map(float, matrix.eigenvalues())),
        },
    }
    if cspec is not None:
        result = build_confidence_set(cspec, obs, fam, dims, mc)
        payload["confidence"] = {
            "variant": cspec.variant.value,
            "level": args.level,
            "center": list(map(float, result.center)),
            "quadratic_radius": result.quadratic_radius,
            "volume": result.volume,
        }
    _emit(payload, args.out)
    return 0


def _emit_tables(tables: dict, out: str | None, metadata: dict) -> None:
    """Write each table as <name>.csv, with metadata.json and the plot
    script, under ``out``, or print its rows to stdout, under a ``# name``
    line when there are several tables."""
    if out:
        write_tables(tables, out, metadata)
        write_plot_script(out)
        if len(tables) == 1:
            print(f"wrote {os.path.join(out, next(iter(tables)) + '.csv')}")
        else:
            print(f"wrote {len(tables)} tables to {out}")
        return
    for name, table in tables.items():
        if len(tables) > 1:
            print(f"# {name}")
        print(",".join(table.header))
        for row in table.rows:
            print(",".join(str(v) for v in row))


def _cmd_constants(args) -> int:
    dims_list = _parse_dims_list(args.dims)
    tables = reproduce_tables(dims_list, families=args.families.split(","))
    meta = {"dims": args.dims, "families": args.families}
    _emit_tables(tables, args.out, meta)
    return 0


def _make_config(args, dims, kinds=None, matrix_kinds=None) -> ExperimentConfig:
    kwargs = {
        "dims_list": (dims,),
        "lambda_grid": tuple(_parse_lambdas(args.lambdas)),
        "reps": args.reps,
        "seed": args.seed,
        "families": (args.family,),
    }
    if kinds is not None:
        kwargs["estimator_kinds"] = kinds
    if matrix_kinds is not None:
        kwargs["matrix_kinds"] = matrix_kinds
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _kinds_or_usage(text: str | None, table: dict, what: str):
    """The estimator kinds named in ``text``, or None for the library's."""
    if text is None:
        return None
    try:
        return tuple(table[k] for k in text.split(","))
    except KeyError as exc:
        raise UsageError(f"unknown {what} estimator kind {exc.args[0]!r}") from exc


def _cmd_risk_curve(args) -> int:
    dims = ProblemDims(args.p, args.n)
    if args.target == "mse":
        if args.loss == "matrix":
            raise UsageError("--loss matrix needs --target matrix")
        kinds = _kinds_or_usage(args.kinds, _MSE_KINDS, "MSE")
        cfg = _make_config(args, dims, kinds=kinds)
        table = run_mse_risk_curve(cfg, loss=args.loss)
    else:
        kinds = _kinds_or_usage(args.kinds, _MATRIX_KINDS, "matrix")
        cfg = _make_config(args, dims, matrix_kinds=kinds)
        loss = "matrix" if args.loss == "mse" else args.loss
        table = run_matrix_risk_curve(cfg, loss=loss)
    _emit_tables({f"risk_curve_{args.target}": table}, args.out, table.metadata)
    return 0


def _cmd_coverage(args) -> int:
    dims = ProblemDims(args.p, args.n)
    cfg = _make_config(args, dims)
    variants = tuple(_spec_or_usage(v, args.level) for v in args.variants.split(","))
    table = run_coverage_curve(cfg, variants)
    _emit_tables({"coverage_curve": table}, args.out, table.metadata)
    return 0


def _cmd_canonicalize(args) -> int:
    design = _read_csv(args.design, column=False)
    response = _read_csv(args.response, column=True)
    try:
        obs, dims, basis = canonicalize_regression(design, response)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        "schema": 1,
        "inputs": {"design": args.design, "response": args.response,
                   "rows": int(design.shape[0]), "cols": int(design.shape[1])},
        "p": dims.p,
        "n": dims.n,
        "x": list(map(float, obs.x)),
        "s": obs.s,
        "basis": [list(map(float, row)) for row in basis],
    }
    _emit(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinmse",
        description="Shrinkage estimation with honest precision estimates and confidence sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="point estimate, MSE, MSE matrix, confidence set")
    est.add_argument("--p", type=int, required=True)
    est.add_argument("--n", type=int, required=True)
    est.add_argument("--x", required=True, help="single-column CSV with the data vector")
    est.add_argument("--s", type=float, required=True, help="scale statistic")
    est.add_argument("--family", default="js-plus")
    est.add_argument("--mse", default="umvue", choices=sorted(_MSE_KINDS))
    est.add_argument("--matrix", default="umvue", choices=sorted(_MATRIX_KINDS))
    est.add_argument("--confidence", default=None, help="c0, c1, c2, c3, c1star, c2star")
    est.add_argument("--level", type=float, default=0.95)
    est.add_argument("--seed", type=int, default=None,
                     help="ignored and echoed: estimate draws no random numbers")
    est.add_argument("--const-reps", type=int, default=1_000_000,
                     help="ignored and echoed: the constants involve no replications")
    est.add_argument("--out", default=None, help="JSON output path (default: stdout)")
    est.set_defaults(func=_cmd_estimate)

    con = sub.add_parser("constants", help="regenerate the constants tables")
    con.add_argument("--dims", default="5x5,10x5,5x10,10x10")
    con.add_argument("--families", default="james-stein,positive-part")
    con.add_argument("--out", default=None, help="output directory (default: stdout)")
    con.set_defaults(func=_cmd_constants)

    risk = sub.add_parser("risk-curve", help="risk curves for the precision estimators")
    risk.add_argument("--p", type=int, required=True)
    risk.add_argument("--n", type=int, required=True)
    risk.add_argument("--family", default="js-plus")
    risk.add_argument("--target", default="mse", choices=("mse", "matrix"))
    mse_kinds, matrix_kinds = (",".join(k.value for k in kinds) for kinds in (
        ExperimentConfig.estimator_kinds, ExperimentConfig.matrix_kinds))
    risk.add_argument("--kinds", default=None,
                      help=f"comma list (default: {mse_kinds} for --target mse, "
                           f"{matrix_kinds} for --target matrix)")
    risk.add_argument("--loss", default="mse", choices=("mse", "matrix", "reduction"))
    risk.add_argument("--lambdas", default="0:30:1")
    risk.add_argument("--reps", type=int, default=100_000)
    risk.add_argument("--seed", type=int, required=True)
    risk.add_argument("--out", default=None, help="output directory (default: stdout)")
    risk.set_defaults(func=_cmd_risk_curve)

    cov = sub.add_parser("coverage", help="coverage and volume curves for confidence sets")
    cov.add_argument("--p", type=int, required=True)
    cov.add_argument("--n", type=int, required=True)
    cov.add_argument("--family", default="js-plus")
    cov.add_argument("--variants", default="c0,c1,c2,c3,c1star,c2star")
    cov.add_argument("--level", type=float, default=0.95)
    cov.add_argument("--lambdas", default="0:30:5")
    cov.add_argument("--reps", type=int, default=10_000)
    cov.add_argument("--seed", type=int, required=True)
    cov.add_argument("--out", default=None, help="output directory (default: stdout)")
    cov.set_defaults(func=_cmd_coverage)

    canon = sub.add_parser("canonicalize", help="regression to canonical (X, S) form")
    canon.add_argument("--design", required=True, help="CSV matrix, one row per observation")
    canon.add_argument("--response", required=True, help="single-column CSV")
    canon.add_argument("--out", default=None, help="JSON output path (default: stdout)")
    canon.set_defaults(func=_cmd_canonicalize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # _read_csv reports unreadable inputs, so this is an output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
