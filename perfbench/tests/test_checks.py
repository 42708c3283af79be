"""Each benchmark check passes on a real output and fails on a corrupted one."""

import csv
import json
import os
import subprocess
import warnings

import numpy as np
import pytest

import checks
import steinmse as sm
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _stream_op(tmp_path, k=3):
    wl = workloads.EstimateStream(str(tmp_path), 7, str(tmp_path))
    wl.setup()
    inp = wl.prepare(k)
    return wl, inp, wl.op(inp)


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    return _stream_op(tmp_path_factory.mktemp("stream"))


def test_stream_output_passes(stream):
    wl, inp, out = stream
    assert wl.check(inp, out) == []


def test_perturbed_point_estimate_fails(stream):
    wl, inp, out = stream
    bad = dict(out, point=out["point"] * (1.0 + 1e-9))
    assert any("point estimate" in p for p in wl.check(inp, bad))


def test_psi_outside_band_fails(stream):
    wl, inp, out = stream
    obs, dims = inp["obs"], inp["model"][0]
    cap = checks.mse_cap(obs.x, obs.s, dims.p, dims.n)
    for kind, value in (("psi0", cap * 1.001), ("psi1-tr", -1e-3), ("psi2-tr", 0.0)):
        bad = dict(out, mse=dict(out["mse"], **{kind: value}))
        assert any(kind in p for p in wl.check(inp, bad)), kind


def test_trace_identity_fails_on_wrong_scalar(stream):
    wl, inp, out = stream
    bad = dict(out, umvue=out["umvue"] * (1.0 + 1e-6) + 1e-6)
    assert any("trace" in p for p in wl.check(inp, bad))


def test_indefinite_xi2_fails(stream):
    wl, inp, out = stream
    m = out["matrix"]["xi2"]
    flipped = sm.AxialMatrix(m.dim, m.scale, -abs(m.iso), m.axial, m.axis)
    bad = dict(out, matrix=dict(out["matrix"], xi2=flipped))
    assert any("positive definite" in p for p in wl.check(inp, bad))


def test_starred_volume_off_by_1e6_fails(stream):
    wl, inp, out = stream
    cs = out["sets"]["c2*"]
    bad_set = sm.ConfidenceResult(cs.center, cs.quadratic_radius, cs.shape,
                                  cs.volume * (1.0 + 1e-6), cs.contains_truth)
    bad = dict(out, sets=dict(out["sets"], **{"c2*": bad_set}))
    assert any("c2* volume" in p for p in wl.check(inp, bad))


def test_quad_form_against_dense_solve():
    rng = np.random.default_rng(0)
    axis = rng.standard_normal(6)
    axis /= np.linalg.norm(axis)
    m = sm.AxialMatrix(6, 1.7, 0.3, 0.9, axis)
    d = rng.standard_normal(6)
    dense = checks.dense_quad_form(m.scale, m.iso, m.axial, m.axis, d)
    assert checks.check_quad_form(sm.quad_form_inv(m, d), dense) == []
    assert checks.check_quad_form(sm.quad_form_inv(m, d) * (1.0 + 1e-7), dense) != []


def test_contains_truth_flip_fails(stream):
    wl, inp, out = stream
    cs = out["sets"]["c1"]
    flipped = sm.ConfidenceResult(cs.center, cs.quadratic_radius, cs.shape, cs.volume,
                                  not cs.contains_truth)
    bad = dict(out, sets=dict(out["sets"], c1=flipped))
    assert any("contains_truth" in p for p in wl.check(inp, bad))


@pytest.fixture(scope="module")
def cli_op(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    wl = workloads.EstimateCli(ROOT, 5, str(tmp))
    inp = wl.prepare(1)
    inp["argv"][inp["argv"].index("--const-reps") + 1] = "5000"
    return wl, inp, wl.op(inp)


def _with_output(res, edit):
    out = json.loads(res.stdout)
    edit(out)
    return subprocess.CompletedProcess(res.args, 0, json.dumps(out), "")


def test_cli_output_passes(cli_op):
    wl, inp, res = cli_op
    assert wl.check(inp, res) == []


def test_cli_perturbed_point_estimate_fails(cli_op):
    wl, inp, res = cli_op

    def edit(out):
        out["point_estimate"][0] += 1e-6
    assert any("point estimate" in p for p in wl.check(inp, _with_output(res, edit)))


def test_cli_starred_volume_off_by_1e6_fails(cli_op):
    wl, inp, res = cli_op

    def edit(out):
        out["confidence"]["volume"] *= 1.0 + 1e-6
    assert any("c2* volume" in p for p in wl.check(inp, _with_output(res, edit)))


def test_cli_failure_exit_fails(cli_op):
    wl, inp, res = cli_op
    failed = subprocess.CompletedProcess(res.args, 1, "", "numerical failure: boom")
    assert wl.check(inp, failed)


def _config(reps=1024):
    return sm.ExperimentConfig(dims_list=(sm.ProblemDims(5, 5),), lambda_grid=(0.0, 5.0),
                               reps=reps, seed=11, families=("positive-part",),
                               const_reps=10_000)


def _rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture(scope="module")
def consts_map():
    dims = sm.ProblemDims(5, 5)
    fam = sm.family_from_name("positive-part", dims)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mc = sm.matrix_constants(fam, dims, reps=10_000, rng=sm.RngStream(3))
    return {("positive-part", dims): mc}


def test_risk_csv_passes_and_fails(tmp_path, consts_map):
    cfg = _config()
    path = str(tmp_path / "risk.csv")
    sm.run_matrix_risk_curve(cfg, consts_map=consts_map).write_csv(path)
    kinds = tuple(k.value for k in cfg.matrix_kinds)
    assert checks.check_risk_csv(path, kinds, 2, ("xi0",)) == []

    def lose(rows):  # xi0 loses to the UMVUE by 10 standard errors
        for r in rows[1:]:
            if r[4] == "xi0":
                r[7] = repr(10.0 * float(r[8]) + 1e-3)
    _rewrite(path, lose)
    assert any("loses to the UMVUE" in p for p in checks.check_risk_csv(path, kinds, 2, ("xi0",)))


def test_risk_csv_nonfinite_fails(tmp_path):
    cfg = _config()
    path = str(tmp_path / "risk.csv")
    sm.run_mse_risk_curve(cfg).write_csv(path)
    kinds = tuple(k.value for k in cfg.estimator_kinds)
    assert checks.check_risk_csv(path, kinds, 2, ("psi0",)) == []

    def nan(rows):
        rows[3][5] = "nan"
    _rewrite(path, nan)
    assert any("not finite" in p for p in checks.check_risk_csv(path, kinds, 2, ("psi0",)))


@pytest.fixture()
def coverage_csv(tmp_path, consts_map):
    path = str(tmp_path / "coverage.csv")
    sm.run_coverage_curve(_config(), consts_map=consts_map).write_csv(path)
    return path


def test_coverage_csv_passes(coverage_csv):
    problems, covered, trials = checks.check_coverage_csv(
        coverage_csv, workloads.COVERAGE_VARIANTS, 2, 1024)
    assert problems == []
    assert trials == 2048 and 0 < covered <= trials


def test_swapped_coverage_column_fails(coverage_csv):
    def swap(rows):
        for r in rows[1:]:
            r[5], r[6] = r[6], r[5]
    _rewrite(coverage_csv, swap)
    problems, _, _ = checks.check_coverage_csv(coverage_csv, workloads.COVERAGE_VARIANTS, 2, 1024)
    assert problems


def test_starred_volume_ratio_off_by_1e6_fails(coverage_csv):
    def skew(rows):
        for r in rows[1:]:
            if r[4] == "c1*":
                r[8] = repr(float(r[8]) + 1e-6)
    _rewrite(coverage_csv, skew)
    problems, _, _ = checks.check_coverage_csv(coverage_csv, workloads.COVERAGE_VARIANTS, 2, 1024)
    assert any("volume ratio" in p for p in problems)


def test_c0_coverage_band():
    trials = 100_000
    assert checks.check_c0_coverage(95_000, trials, 0.95) == []
    # 4 standard errors is 275 of 100000 draws.
    assert checks.check_c0_coverage(95_300, trials, 0.95) != []
    assert checks.check_c0_coverage(94_700, trials, 0.95) != []
