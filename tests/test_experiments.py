import os
import warnings

import numpy as np
import pytest

import steinmse as sm

K = sm.MseEstimatorKind
MK = sm.MatrixEstimatorKind
DIMS = sm.ProblemDims(5, 5)


def _small_cfg(**overrides):
    base = dict(dims_list=(DIMS,), lambda_grid=(0.0, 4.0), reps=6000, seed=17,
                families=("positive-part",),
                estimator_kinds=(K.UMVUE, K.PSI0),
                matrix_kinds=(MK.UMVUE, MK.XI0_ETA0),
                threads=1)
    base.update(overrides)
    return sm.ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        sm.ExperimentConfig(dims_list=(DIMS,), reps=0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            sm.ExperimentConfig(dims_list=(DIMS,), lambda_grid=(0.0, bad))
    with pytest.raises(ValueError):
        sm.ExperimentConfig(dims_list=(DIMS,), threads=0)
    # The seed is checked when the configuration is built, before any
    # constants are made, by the rule every stream key obeys.
    for seed in (-1, 2 ** 64, 1.5):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sm.ExperimentConfig(dims_list=(DIMS,), seed=seed)


def test_mse_curve_paired_identity_and_dominance():
    table = sm.run_mse_risk_curve(_small_cfg())
    by_key = {(r.lam, r.kind): r for r in table.rows}
    for lam in (0.0, 4.0):
        umvue = by_key[(lam, "umvue")]
        psi0 = by_key[(lam, "psi0")]
        # Paired identity: mean loss difference equals the risk difference.
        assert psi0.diff_vs_umvue == pytest.approx(psi0.risk - umvue.risk, rel=1e-10)
        assert umvue.diff_vs_umvue == 0.0
        # Theorem-backed dominance at paired precision.
        assert psi0.diff_vs_umvue <= 3.0 * psi0.diff_stderr
        assert umvue.stderr > 0 and psi0.stderr > 0


def test_gap_is_largest_at_zero_signal():
    # The improvement over the unbiased estimate shrinks as the signal
    # grows.
    cfg = _small_cfg(lambda_grid=(0.0, 30.0), reps=20_000)
    rows = {(r.lam, r.kind): r for r in sm.run_mse_risk_curve(cfg).rows}
    gap0 = rows[(0.0, "psi0")].diff_vs_umvue
    gap30 = rows[(30.0, "psi0")].diff_vs_umvue
    assert gap0 < gap30 <= 3.0 * rows[(30.0, "psi0")].diff_stderr


def test_dominance_at_larger_dims():
    cfg = sm.ExperimentConfig(
        dims_list=(sm.ProblemDims(10, 10),), lambda_grid=(0.0, 10.0), reps=8000,
        seed=29, families=("james-stein", "positive-part"),
        estimator_kinds=(K.UMVUE, K.PSI0),
        matrix_kinds=(MK.UMVUE, MK.XI0_ETA0),
        threads=1)
    for table in (sm.run_mse_risk_curve(cfg), sm.run_matrix_risk_curve(cfg)):
        for row in table.rows:
            if row.kind != "umvue":
                assert row.diff_vs_umvue <= 3.0 * row.diff_stderr


def test_coverage_dips_at_large_signal_for_larger_n():
    # With n = 10 the matrix-shaped sets lose a little coverage at strong
    # signal, unlike the uniformly conservative recentered ball.
    dims = sm.ProblemDims(5, 10)
    fam = sm.family_from_name("positive-part", dims)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        consts = sm.matrix_constants(fam, dims, j_max=25)
        cfg = sm.ExperimentConfig(dims_list=(dims,), lambda_grid=(20.0,), reps=40_000,
                                  seed=3, families=("positive-part",), threads=1)
        table = sm.run_coverage_curve(cfg, consts_map={("positive-part", dims): consts})
    by_variant = {r.variant: r for r in table.rows}
    assert by_variant["c1"].coverage < 0.95 - 2.0 * by_variant["c1"].stderr
    assert by_variant["c3"].coverage >= 0.95 - 2.0 * by_variant["c3"].stderr


def test_single_rep_flags_stderr():
    table = sm.run_mse_risk_curve(_small_cfg(reps=1, lambda_grid=(2.0,)))
    for row in table.rows:
        assert np.isfinite(row.risk)
        assert np.isnan(row.stderr)


def test_reduction_loss_mode():
    table = sm.run_mse_risk_curve(_small_cfg(estimator_kinds=(K.UMVUE, K.PSI2),
                                             lambda_grid=(0.0,)), loss="reduction")
    by_kind = {r.kind: r for r in table.rows}
    # Positive estimates improve the reduction estimate at zero signal.
    assert by_kind["psi2"].diff_vs_umvue <= 3.0 * by_kind["psi2"].diff_stderr
    assert table.loss == "reduction"


def test_matrix_curve_dominance():
    table = sm.run_matrix_risk_curve(_small_cfg())
    by_key = {(r.lam, r.kind): r for r in table.rows}
    for lam in (0.0, 4.0):
        assert by_key[(lam, "xi0")].diff_vs_umvue <= 3.0 * by_key[(lam, "xi0")].diff_stderr


def test_matrix_reduction_loss_dominance():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        table = sm.run_matrix_risk_curve(
            _small_cfg(matrix_kinds=(MK.UMVUE, MK.XI1_ETA1, MK.XI2_ETA2),
                       lambda_grid=(0.0, 6.0)),
            loss="reduction")
    by_key = {(r.lam, r.kind): r for r in table.rows}
    for lam in (0.0, 6.0):
        for kind in ("xi1", "xi2"):
            assert by_key[(lam, kind)].diff_vs_umvue <= 3.0 * by_key[(lam, kind)].diff_stderr


@pytest.mark.parametrize("loss", ["matrix", "reduction"])
def test_matrix_curve_axial_algebra_matches_dense(loss):
    # Replays the curve's one block and scores each estimate against the
    # exact truth with dense p x p matrices: ||Mhat - M||_F^2 per draw.
    from steinmse.experiments import _DOMAIN_MATRIX_CURVE, _draw_block, _stream

    lam, reps, p, n = 6.0, 3000, DIMS.p, DIMS.n
    cfg = _small_cfg(lambda_grid=(lam,), reps=reps, theta_direction=[1.0, 2.0, 0.0, -1.0, 0.5])
    rows = {r.kind: r for r in sm.run_matrix_risk_curve(cfg, loss=loss).rows}
    fam = sm.family_from_name("positive-part", DIMS)
    consts = sm.matrix_constants(fam, DIMS)
    direction = np.array([1.0, 2.0, 0.0, -1.0, 0.5]) / np.linalg.norm([1.0, 2.0, 0.0, -1.0, 0.5])
    theta = np.sqrt(lam) * direction
    x, s, w = _draw_block(_stream(cfg.seed, _DOMAIN_MATRIX_CURVE), reps, theta, n)
    a, b = sm.true_mse_matrix(fam, DIMS, lam)
    truth = a * np.eye(p) + b * np.outer(theta, theta)
    u = x / np.linalg.norm(x, axis=1)[:, None]
    for kind in cfg.matrix_kinds:
        l_perp, l_axis = sm.matrix_eigen_parts(kind, w, fam, DIMS, consts)
        uu = np.einsum("ri,rj->rij", u, u)
        est = s[:, None, None] * (l_perp[:, None, None] * np.eye(p)
                                  + (l_axis - l_perp)[:, None, None] * uu)
        ref = truth
        if loss == "reduction":
            est = (s / n)[:, None, None] * np.eye(p) - est
            ref = np.eye(p) - truth
        dense = np.mean(np.sum((est - ref) ** 2, axis=(1, 2)))
        assert rows[kind.value].risk == pytest.approx(dense, rel=1e-10)


def test_theta_direction_invariance():
    # Risks depend on theta only through the noncentrality.
    cfg_a = _small_cfg(lambda_grid=(6.0,), reps=30_000, seed=23)
    cfg_b = _small_cfg(lambda_grid=(6.0,), reps=30_000, seed=24, theta_direction="first-axis")
    ra = {r.kind: r for r in sm.run_mse_risk_curve(cfg_a).rows}
    rb = {r.kind: r for r in sm.run_mse_risk_curve(cfg_b).rows}
    for kind in ("umvue", "psi0"):
        tol = 4.0 * float(np.hypot(ra[kind].stderr, rb[kind].stderr))
        assert abs(ra[kind].risk - rb[kind].risk) < tol


def test_unbiasedness_harness():
    cfg = _small_cfg(lambda_grid=(0.0, 8.0), reps=30_000, estimator_kinds=(K.UMVUE,))
    fam = sm.family_from_name("positive-part", DIMS)
    for li, lam in enumerate(cfg.lambda_grid):
        risk_true = sm.true_risk(fam, DIMS, lam)
        g = sm.RngStream(901, li).generator()
        theta = np.sqrt(lam / DIMS.p) * np.ones(DIMS.p)
        x = theta + g.standard_normal((cfg.reps, DIMS.p))
        s = g.chisquare(DIMS.n, cfg.reps)
        w = np.einsum("ij,ij->i", x, x) / s
        vals = np.asarray(sm.estimate_mse_at(K.UMVUE, w, s, fam, DIMS))
        se = vals.std(ddof=1) / np.sqrt(cfg.reps)
        assert abs(vals.mean() - risk_true) < 4.0 * se


def test_coverage_curve_baseline_pivot():
    cfg = _small_cfg(lambda_grid=(0.0, 9.0), reps=20_000)
    table = sm.run_coverage_curve(cfg, (sm.ConfidenceSpec(sm.ConfidenceVariant.C0),
                                        sm.ConfidenceSpec(sm.ConfidenceVariant.C3)))
    for row in table.rows:
        if row.variant == "c0":
            # Exact pivot: coverage is 0.95 up to binomial noise.
            assert abs(row.coverage - 0.95) < 4.0 * row.stderr
        assert row.mean_volume > 0


def test_coverage_star_volume_ratio_exact():
    cfg = _small_cfg(lambda_grid=(1.0,), reps=5000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        table = sm.run_coverage_curve(cfg)
    by_variant = {r.variant: r for r in table.rows}
    assert by_variant["c1*"].volume_ratio_vs_c0 == pytest.approx(1.0, abs=1e-12)
    assert by_variant["c2*"].volume_ratio_vs_c0 == pytest.approx(1.0, abs=1e-12)
    assert by_variant["c3"].volume_ratio_vs_c0 == pytest.approx(1.0, abs=1e-12)


def test_coverage_matches_scalar_construction():
    # The vectorized engine agrees with the one-observation builder.
    cfg = _small_cfg(lambda_grid=(2.0,), reps=64)
    fam = sm.family_from_name("positive-part", DIMS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        consts = sm.matrix_constants(fam, DIMS, j_max=20)
        table = sm.run_coverage_curve(cfg, consts_map={("positive-part", DIMS): consts})
    covered = {v: 0 for v in ("c0", "c1", "c2", "c3", "c1*", "c2*")}
    theta = np.sqrt(2.0 / DIMS.p) * np.ones(DIMS.p)
    # Rebuild the same draws the engine used (single block, stream layout).
    from steinmse.experiments import _draw_block, _stream
    x, s, w = _draw_block(_stream(cfg.seed, 5, 0, 0, 0, 0), 64, theta, DIMS.n)
    for i in range(64):
        obs = sm.Observation(x[i], float(s[i]))
        for variant in covered:
            spec = sm.ConfidenceSpec(sm.ConfidenceVariant(variant))
            res = sm.build_confidence_set(spec, obs, fam, DIMS, consts, theta)
            covered[variant] += bool(res.contains_truth)
    by_variant = {r.variant: r for r in table.rows}
    for variant, count in covered.items():
        assert by_variant[variant].coverage == pytest.approx(count / 64.0, abs=1e-12)


def test_determinism_across_thread_counts(tmp_path):
    texts = {}
    for threads in (1, 3):
        cfg = _small_cfg(threads=threads, reps=9000)
        risk = sm.run_mse_risk_curve(cfg)
        cov = sm.run_coverage_curve(cfg, (sm.ConfidenceSpec(sm.ConfidenceVariant.C0),
                                          sm.ConfidenceSpec(sm.ConfidenceVariant.C3)))
        r_path = tmp_path / f"risk_{threads}.csv"
        c_path = tmp_path / f"cov_{threads}.csv"
        risk.write_csv(str(r_path))
        cov.write_csv(str(c_path))
        texts[threads] = (r_path.read_bytes(), c_path.read_bytes())
    assert texts[1] == texts[3]


def test_csv_format(tmp_path):
    from steinmse.experiments import RiskRow
    table = sm.run_mse_risk_curve(_small_cfg(lambda_grid=(0.0,), reps=2000))
    path = tmp_path / "out.csv"
    table.write_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(RiskRow._fields)
    # Floats print with 10 significant digits.
    risk_cell = lines[1].split(",")[5]
    digits = risk_cell.replace(".", "").replace("-", "").replace("e", " ").split()[0]
    assert 1 <= len(digits.lstrip("0")) <= 10
    assert float(risk_cell) == pytest.approx(table.rows[0].risk, rel=1e-9)


def test_reproduce_tables_structure_and_analytic_rows(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        tables = sm.reproduce_tables([DIMS], j_max=12)
    assert set(tables) == {"table1_gamma", "table2_w", "table3_beta2",
                           "table4_gamma_xi_eta", "table5_w_xi_eta", "beta_per_j"}
    t1 = {row[0]: row for row in tables["table1_gamma"].rows}
    assert t1["james-stein"][3] == pytest.approx(0.6795, abs=5e-4)
    for table in tables.values():
        assert "stderr" not in table.header  # exact constants carry no error
    t5 = {(row[0], row[1]): row for row in tables["table5_w_xi_eta"].rows}
    assert ("w_eta", "james-stein") not in t5  # identically-one marker
    assert ("w_eta", "positive-part") in t5
    paths = sm.write_tables(tables, str(tmp_path), {"j_max": 12})
    assert (tmp_path / "metadata.json").exists()
    assert len(paths) == 7
    script = sm.write_plot_script(str(tmp_path))
    assert os.path.exists(script)


@pytest.mark.parametrize("field, first_out", [("fam_idx", 16), ("dims_idx", 256),
                                              ("lam_idx", 65536), ("block", 2**32)])
def test_stream_index_overflow_raises(field, first_out):
    from steinmse.experiments import _stream
    _stream(1, 5, **{field: first_out - 1})
    with pytest.raises(ValueError, match="stream field"):
        _stream(1, 5, **{field: first_out})


def test_stream_ids_distinct_at_largest_indices():
    from steinmse.experiments import _stream
    largest = {"fam_idx": 15, "dims_idx": 255, "lam_idx": 65535, "block": 2**32 - 1}
    ids = {_stream(1, 5).stream_id, _stream(1, 5, **largest).stream_id}
    ids |= {_stream(1, 5, **{k: v}).stream_id for k, v in largest.items()}
    assert len(ids) == 6
