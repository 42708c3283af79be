"""The four benchmark workloads: inputs, operations and output checks.

Each workload has ``setup()`` (repeated and timed by the runner),
``prepare(k)`` (makes the inputs of operation k, untimed), ``op(inputs)``
(the timed operation), ``check(inputs, output)`` (the list of problems,
untimed) and ``finish()`` (checks over the whole run). Operation k's inputs
and library seeds come from ``numpy.random.default_rng((seed, id, 1, k))``
and set-up's from ``(seed, id, 0)``, so the benchmark seed fixes them all.
``ROUND`` operations make one round: the runner stops only between rounds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings

import numpy as np

import checks
import steinmse as sm

LEVEL = 0.95
TABLE_DIMS = ((5, 5), (10, 5), (5, 10), (10, 10))  # the paper's table dims
FAMILIES = ("james-stein", "positive-part")
COMBOS = tuple((p, n, fam) for p, n in TABLE_DIMS for fam in FAMILIES)

# Library seed range; kept below 2**31 so it reads the same in JSON and argv.
_SEED_RANGE = 2**31

CLI_CONST_REPS = 50_000
STREAM_CONST_REPS = 10_000
STREAM_OBS_PER_COMBO = 16
CURVE_DIMS = (5, 5)
CURVE_FAMILY = "positive-part"
CURVE_GRID = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0)
CURVE_REPS = 8192
CURVE_CONST_REPS = 20_000
COVERAGE_VARIANTS = ("c0", "c1", "c2", "c3", "c1*", "c2*")

# Spawning a CLI the way the `steinmse` console script does.
CLI_BOOT = "import sys; from steinmse.cli import main; sys.exit(main())"


def _draw_observation(rng: np.random.Generator, p: int, n: int):
    """theta at a noncentrality uniform on [0, 3p] in a random direction,
    sigma^2 uniform on [0.5, 2], then X ~ N(theta, sigma^2 I) and
    S ~ sigma^2 chi^2_n."""
    lam = rng.uniform(0.0, 3.0 * p)
    direction = rng.standard_normal(p)
    direction /= np.linalg.norm(direction)
    sigma2 = rng.uniform(0.5, 2.0)
    theta = np.sqrt(lam * sigma2) * direction
    x = theta + np.sqrt(sigma2) * rng.standard_normal(p)
    s = sigma2 * rng.chisquare(n)
    return theta, x, float(s)


class Workload:
    """Base of the workloads; subclasses set NAME, ID (part of every rng
    key) and ROUND (operations per round)."""

    NAME: str
    ID: int
    ROUND: int

    def __init__(self, root: str, seed: int, workdir: str, tracer=None):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer

    def rng(self, k: int | None) -> np.random.Generator:
        key = (self.seed, self.ID, 0) if k is None else (self.seed, self.ID, 1, k)
        return np.random.default_rng(key)

    def finish(self) -> list:
        return []


class EstimateCli(Workload):
    """One cold `steinmse estimate` process per operation, cycling through
    the four table dims and both families."""

    NAME = "estimate-cli"
    ID = 1
    ROUND = len(COMBOS)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))

    def _spawn(self, argv: list, trace_path: str | None = None):
        if trace_path is None:
            cmd = [sys.executable, "-c", CLI_BOOT] + argv
        else:
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "cli_traced.py"),
                   trace_path] + argv
        return subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=150)

    def _write_x(self, name: str, x) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write("".join(f"{float(v)!r}\n" for v in x))
        return path

    def setup(self) -> None:
        """One constants-free call, which warms the file cache."""
        path = self._write_x("x-setup.csv", self.rng(None).standard_normal(5))
        res = self._spawn(["estimate", "--p", "5", "--n", "5", "--x", path, "--s", "1.0"])
        if res.returncode != 0:
            raise RuntimeError(f"set-up call exited {res.returncode}: {res.stderr.strip()}")

    def prepare(self, k: int) -> dict:
        p, n, fam = COMBOS[k % len(COMBOS)]
        rng = self.rng(k)
        theta, x, s = _draw_observation(rng, p, n)
        path = self._write_x(f"x-{k % len(COMBOS)}.csv", x)
        argv = ["estimate", "--p", str(p), "--n", str(n), "--x", path, "--s", repr(s),
                "--family", fam, "--mse", "psi2-tr", "--matrix", "xi2-tr",
                "--confidence", "c2star", "--level", str(LEVEL),
                "--seed", str(int(rng.integers(_SEED_RANGE))),
                "--const-reps", str(CLI_CONST_REPS)]
        return {"p": p, "n": n, "family": fam, "x": x, "s": s, "argv": argv}

    def op(self, inp: dict):
        if self.tracer is None:
            return self._spawn(inp["argv"])
        trace_path = os.path.join(self.workdir, "cli-spans.json")
        res = self._spawn(inp["argv"], trace_path)
        with open(trace_path) as fh:
            self.tracer.adopt(json.load(fh), self.tracer.current())
        return res

    def check(self, inp: dict, res) -> list:
        if res.returncode != 0:
            return [f"exit code {res.returncode}: {res.stderr.strip()[-400:]}"]
        try:
            out = json.loads(res.stdout)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        p, n, fam, x, s = inp["p"], inp["n"], inp["family"], inp["x"], inp["s"]
        mat = out["mse_matrix"]
        conf = out["confidence"]
        problems = checks.check_point(out["point_estimate"], x, s, fam, p, n)
        problems += checks.check_point(conf["center"], x, s, fam, p, n)
        problems += checks.check_psi("psi2-tr", out["mse"]["value"], x, s, p, n)
        problems += checks.check_eigenvalues("xi2-tr", mat["scale"], mat["iso"], mat["axial"])
        problems += checks.check_volume("c2*", conf["volume"], s, p, n, LEVEL)
        return problems


class EstimateStream(Workload):
    """The single-observation API on one observation per operation, with
    both constant sets computed once in set-up."""

    NAME = "estimate-stream"
    ID = 2
    ROUND = len(COMBOS) * STREAM_OBS_PER_COMBO

    def setup(self) -> None:
        rng = self.rng(None)
        self.specs = tuple(sm.ConfidenceSpec(v, LEVEL) for v in sm.ConfidenceVariant)
        self.models = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # j-scan boundary notes
            for p, n, fam_name in COMBOS:
                dims = sm.ProblemDims(p, n)
                fam = sm.family_from_name(fam_name, dims)
                sc = sm.shrinkage_constants(fam, dims, STREAM_CONST_REPS,
                                            sm.RngStream(int(rng.integers(_SEED_RANGE))))
                mc = sm.matrix_constants(fam, dims, reps=STREAM_CONST_REPS,
                                         rng=sm.RngStream(int(rng.integers(_SEED_RANGE))))
                self.models.append((dims, fam_name, fam, sc, mc))

    def prepare(self, k: int) -> dict:
        model = self.models[k % len(COMBOS)]
        dims = model[0]
        theta, x, s = _draw_observation(self.rng(k), dims.p, dims.n)
        return {"model": model, "theta": theta, "obs": sm.Observation(x, s)}

    def op(self, inp: dict) -> dict:
        dims, _, fam, sc, mc = inp["model"]
        obs, theta = inp["obs"], inp["theta"]
        return {
            "point": sm.apply_estimator(obs, fam, dims),
            "mse": {k.value: sm.estimate_mse(k, obs, fam, dims, sc)
                    for k in sm.MseEstimatorKind},
            "umvue": sm.umvue_mse(obs, fam, dims),
            "umvue_matrix": sm.umvue_mse_matrix(obs, fam, dims),
            "matrix": {k.value: sm.estimate_mse_matrix(k, obs, fam, dims, mc)
                       for k in sm.MatrixEstimatorKind},
            "sets": {spec.variant.value: sm.build_confidence_set(spec, obs, fam, dims, mc,
                                                                 theta=theta)
                     for spec in self.specs},
        }

    def check(self, inp: dict, out: dict) -> list:
        dims, fam_name, _, _, _ = inp["model"]
        obs, theta = inp["obs"], inp["theta"]
        p, n, x, s = dims.p, dims.n, obs.x, obs.s
        problems = checks.check_point(out["point"], x, s, fam_name, p, n)
        for kind, value in out["mse"].items():
            if kind.startswith("psi"):
                problems += checks.check_psi(kind, value, x, s, p, n)
        if out["mse"]["tr0"] < 0.0:
            problems.append(f"tr0 estimate {out['mse']['tr0']} is negative")
        um = out["umvue_matrix"]
        trace = um.scale * (p * um.iso + um.axial)
        problems += checks.check_trace_identity(trace, out["umvue"], s, p, n)
        problems += checks.check_trace_identity(trace, out["mse"]["umvue"], s, p, n)
        for kind, m in out["matrix"].items():
            problems += checks.check_eigenvalues(kind, m.scale, m.iso, m.axial)
        for variant, cs in out["sets"].items():
            if variant in ("c0", "c1*", "c2*"):
                problems += checks.check_volume(variant, cs.volume, s, p, n, LEVEL)
            d = cs.center - theta
            m = cs.shape
            dense = checks.dense_quad_form(m.scale, m.iso, m.axial, m.axis, d)
            problems += checks.check_quad_form(sm.quad_form_inv(m, d), dense)
            q = dense / p
            if abs(q - cs.quadratic_radius) > 1e-9 * cs.quadratic_radius and \
                    cs.contains_truth != (q <= cs.quadratic_radius):
                problems.append(f"{variant}: contains_truth {cs.contains_truth} disagrees "
                                "with the dense quadratic form")
        return problems


class _Curve(Workload):
    """Shared set-up of the two Monte Carlo workloads: the matrix
    constants of the curve's family and dims, passed via ``consts_map``."""

    def setup(self) -> None:
        dims = sm.ProblemDims(*CURVE_DIMS)
        fam = sm.family_from_name(CURVE_FAMILY, dims)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mc = sm.matrix_constants(fam, dims, reps=CURVE_CONST_REPS,
                                     rng=sm.RngStream(int(self.rng(None).integers(_SEED_RANGE))))
        self.consts_map = {(CURVE_FAMILY, dims): mc}

    def config(self, k: int):
        return sm.ExperimentConfig(
            dims_list=(sm.ProblemDims(*CURVE_DIMS),), lambda_grid=CURVE_GRID, reps=CURVE_REPS,
            seed=int(self.rng(k).integers(_SEED_RANGE)), families=(CURVE_FAMILY,),
            threads=1, const_reps=CURVE_CONST_REPS)


class RiskCurve(_Curve):
    """run_mse_risk_curve then run_matrix_risk_curve, both CSVs written."""

    NAME = "risk-curve"
    ID = 3
    ROUND = 4

    def prepare(self, k: int) -> dict:
        return {"cfg": self.config(k),
                "mse_csv": os.path.join(self.workdir, "risk_curve_mse.csv"),
                "matrix_csv": os.path.join(self.workdir, "risk_curve_matrix.csv")}

    def op(self, inp: dict) -> None:
        cfg = inp["cfg"]
        sm.run_mse_risk_curve(cfg).write_csv(inp["mse_csv"])
        sm.run_matrix_risk_curve(cfg, consts_map=self.consts_map).write_csv(inp["matrix_csv"])

    def check(self, inp: dict, _) -> list:
        cfg = inp["cfg"]
        n_lam = len(cfg.lambda_grid)
        return (checks.check_risk_csv(inp["mse_csv"], tuple(k.value for k in cfg.estimator_kinds),
                                      n_lam, ("psi0",))
                + checks.check_risk_csv(inp["matrix_csv"],
                                        tuple(k.value for k in cfg.matrix_kinds), n_lam, ("xi0",)))


class Coverage(_Curve):
    """run_coverage_curve for all six variants, CSV written. The C0
    coverage is tested once over the whole run (``finish``); if that test
    fails, every operation of the run counts as failed."""

    NAME = "coverage"
    ID = 4
    ROUND = 16

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.c0_covered = 0
        self.c0_trials = 0

    def prepare(self, k: int) -> dict:
        return {"cfg": self.config(k), "csv": os.path.join(self.workdir, "coverage_curve.csv")}

    def op(self, inp: dict) -> None:
        sm.run_coverage_curve(inp["cfg"], consts_map=self.consts_map).write_csv(inp["csv"])

    def check(self, inp: dict, _) -> list:
        cfg = inp["cfg"]
        problems, covered, trials = checks.check_coverage_csv(
            inp["csv"], COVERAGE_VARIANTS, len(cfg.lambda_grid), cfg.reps)
        self.c0_covered += covered
        self.c0_trials += trials
        return problems

    def finish(self) -> list:
        return checks.check_c0_coverage(self.c0_covered, self.c0_trials, LEVEL)


WORKLOADS = {cls.NAME: cls for cls in (EstimateCli, EstimateStream, RiskCurve, Coverage)}
