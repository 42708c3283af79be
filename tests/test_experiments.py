import json
import math
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def _replay(stream, m, theta, n, dtype=float):
    """One block re-drawn from its stream in the order ``experiments._draw``
    draws it: t = mu + Z for Z ~ N(0, 1), V ~ chi^2_{p-1} (none at p = 1),
    S ~ chi^2_n, with mu = ||theta||. Returns (x, s, t, v), where x is an (m, p) array in
    ``dtype`` with exactly these statistics: x = t theta/mu + sqrt(V) e, for
    unit vectors e orthogonal to theta drawn from an unrelated stream, with
    the grid direction (1, ..., 1)/sqrt(p) in place of theta/mu at mu = 0."""
    p = theta.shape[0]
    g = stream.generator()
    mu = math.hypot(*theta)
    t = mu + g.standard_normal(m)
    v = g.chisquare(p - 1, m) if p > 1 else np.zeros(m)
    s = g.chisquare(n, m)
    axis = (theta if mu > 0 else np.ones(p)).astype(dtype)
    axis /= np.sqrt(axis @ axis)
    x = t.astype(dtype)[:, None] * axis
    if p > 1:
        e = np.random.default_rng(8191).standard_normal((m, p)).astype(dtype)
        e -= (e @ axis)[:, None] * axis
        e /= np.sqrt((e * e).sum(axis=1))[:, None]
        x += np.sqrt(v.astype(dtype))[:, None] * e
    return x, s, t, v


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
    # So are the family names: a bad one no longer waits until every point
    # of the families before it has been scored.
    with pytest.raises(ValueError, match="unknown family 'bogus'"):
        sm.ExperimentConfig(dims_list=(DIMS,), families=("james-stein", "bogus"))


@pytest.mark.parametrize("run, loss", [(sm.run_mse_risk_curve, "matrix"),
                                       (sm.run_mse_risk_curve, "risk"),
                                       (sm.run_matrix_risk_curve, "mse")])
def test_risk_curves_reject_an_unknown_loss(run, loss):
    with pytest.raises(ValueError, match="loss must be"):
        run(sm.ExperimentConfig(dims_list=(DIMS,), lambda_grid=(0.0,), reps=10), loss=loss)


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
        consts = sm.matrix_constants(fam, dims)
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
    assert table.metadata["loss"] == "reduction"


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
    from steinmse.experiments import _DOMAIN_MATRIX_CURVE, _stream

    lam, reps, p, n = 6.0, 3000, DIMS.p, DIMS.n
    cfg = _small_cfg(lambda_grid=(lam,), reps=reps)
    rows = {r.kind: r for r in sm.run_matrix_risk_curve(cfg, loss=loss).rows}
    fam = sm.family_from_name("positive-part", DIMS)
    consts = sm.matrix_constants(fam, DIMS)
    theta = math.sqrt(lam) * (np.ones(p) / math.sqrt(p))  # as the engine's
    x, s, _, _ = _replay(_stream(cfg.seed, _DOMAIN_MATRIX_CURVE), reps, theta, n)
    w = np.einsum("ij,ij->i", x, x) / s
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
    # Risks depend on theta only through the noncentrality, which is why
    # the curves fix theta's direction: draws with all of theta on the
    # first axis give the library's curve to within noise.
    lam, reps = 6.0, 30_000
    cfg = _small_cfg(lambda_grid=(lam,), reps=reps, seed=23)
    rows = {r.kind: r for r in sm.run_mse_risk_curve(cfg).rows}
    fam = sm.family_from_name("positive-part", DIMS)
    consts = sm.shrinkage_constants(fam, DIMS)
    risk_true = sm.true_risk(fam, DIMS, lam)
    g = sm.RngStream(24).generator()
    theta = np.zeros(DIMS.p)
    theta[0] = math.sqrt(lam)
    x = theta + g.standard_normal((reps, DIMS.p))
    s = g.chisquare(DIMS.n, reps)
    w = np.einsum("ij,ij->i", x, x) / s
    for kind in cfg.estimator_kinds:
        losses = (np.asarray(sm.estimate_mse_at(kind, w, s, fam, DIMS, consts)) - risk_true) ** 2
        row = rows[kind.value]
        tol = 4.0 * float(np.hypot(row.stderr, losses.std(ddof=1) / math.sqrt(reps)))
        assert abs(row.risk - losses.mean()) < tol


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


@pytest.mark.parametrize("p", [1, 3, 5, 50])
@pytest.mark.parametrize("lam", [0.0, 2.0, 20.0])
def test_drawn_row_statistics_follow_their_law(p, lam):
    # A block is drawn as row statistics, not as X ~ N(theta, I): still
    # ||X||^2 ~ chi^2_p(lam), X'theta ~ N(lam, lam) with Cov(||X||^2, X'theta)
    # = 2 lam, S ~ chi^2_n independent of both, and W = ||X||^2/S. Each
    # sample moment lies within 5 of its standard errors (taken from the
    # sample) of the closed form; at lam = 0, X'theta is exactly 0.
    from steinmse.experiments import _draw, _row_statistics

    m, n = 2 ** 16, 7
    s, w, xx, x_theta = _row_statistics(math.sqrt(lam), *_draw(sm.RngStream(41, p).generator(),
                                                                m, p, n))
    assert np.array_equal(w, xx / s)
    if lam == 0.0:
        assert np.all(x_theta == 0.0)
    ds, dxx, dxt = s - s.mean(), xx - xx.mean(), x_theta - x_theta.mean()
    for name, sample, want in (("E||X||^2", xx, p + lam),
                               ("Var||X||^2", dxx * dxx, 2.0 * (p + 2.0 * lam)),
                               ("E X'theta", x_theta, lam), ("Var X'theta", dxt * dxt, lam),
                               ("Cov", dxx * dxt, 2.0 * lam), ("E S", s, n),
                               ("Var S", ds * ds, 2.0 * n), ("Cov S", ds * dxx, 0.0),
                               ("Cov S theta", ds * dxt, 0.0)):
        se = sample.std(ddof=1) / math.sqrt(m)
        assert abs(sample.mean() - want) <= 5.0 * se, name


_TABLE_DIMS = (DIMS, sm.ProblemDims(10, 5), sm.ProblemDims(5, 10), sm.ProblemDims(10, 10))


def _mean_within(totals, want, reps, sigmas=4.0):
    """Whether the mean of a score column pair (sum, sum of squares) lies
    within ``sigmas`` standard errors of ``want``."""
    mean = totals[0] / reps
    se = math.sqrt(max(totals[1] / reps - mean * mean, 0.0) / (reps - 1))
    return abs(mean - want) <= sigmas * se


def test_curve_blocks_match_the_exact_truth():
    # On the risk curves' own blocks, at the table dims and both families,
    # the unbiased MSE estimate averages to true_risk, and the unbiased MSE
    # matrix S(l I + g3 uu') to true_mse_matrix's a I + b theta theta',
    # read through its trace p a + b lam and theta'(.)theta = lam (a + b lam),
    # within 4 sigma; C0 covers at its level within 4 binomial sigma.
    from steinmse.experiments import _DOMAIN_MATRIX_CURVE, _DOMAIN_MSE_CURVE, _grid
    from steinmse.umvue import _kernel_terms, _matrix_parts_from

    lambdas, reps = (0.0, 2.0, 20.0), 2 ** 14
    cfg = _small_cfg(dims_list=_TABLE_DIMS, families=("james-stein", "positive-part"),
                     lambda_grid=lambdas, reps=reps)

    def mse_setup(_name, fam, dims):
        def score(s, w, _xx, _x_theta):
            est = sm.estimate_mse_at(K.UMVUE, w, s, fam, dims)
            return np.array([est.sum(), (est * est).sum()])
        return None, lambda _li: score

    for dims, name, lam, totals in _grid(cfg, _DOMAIN_MSE_CURVE, mse_setup)[0]:
        pt = (name, dims, lam)
        fam = sm.family_from_name(name, dims)
        assert _mean_within(totals, sm.true_risk(fam, dims, lam), reps), pt

    def matrix_setup(_name, fam, dims):
        def score(li):
            lam = lambdas[li]

            def at(s, w, xx, x_theta):
                iso, g3 = _matrix_parts_from(*_kernel_terms(fam, dims, w), w, dims)
                trace = s * (dims.p * iso + g3)
                along = s * (lam * iso + g3 * x_theta * x_theta / xx)
                return np.array([trace.sum(), (trace * trace).sum(),
                                 along.sum(), (along * along).sum()])
            return at
        return None, score

    for dims, name, lam, totals in _grid(cfg, _DOMAIN_MATRIX_CURVE, matrix_setup)[0]:
        pt = (name, dims, lam)
        a, b = sm.true_mse_matrix(sm.family_from_name(name, dims), dims, lam)
        assert _mean_within(totals[:2], dims.p * a + b * lam, reps), pt
        if lam > 0:
            assert _mean_within(totals[2:], lam * (a + b * lam), reps), pt

    table = sm.run_coverage_curve(cfg, (sm.ConfidenceSpec(sm.ConfidenceVariant.C0),))
    assert len(table.rows) == len(_TABLE_DIMS) * 2 * len(lambdas)
    for row in table.rows:
        assert abs(row.coverage - 0.95) <= 4.0 * math.sqrt(0.95 * 0.05 / reps), row


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
    # C3 has C0's shape and a starred set's threshold gives it C0's volume,
    # so their rows carry C0's mean volume to the bit and a volume ratio of
    # exactly 1, at every table dims and both families.
    table_dims = (DIMS, sm.ProblemDims(10, 5), sm.ProblemDims(5, 10), sm.ProblemDims(10, 10))
    cfg = _small_cfg(dims_list=table_dims, families=("james-stein", "positive-part"),
                     lambda_grid=(0.0, 2.0, 20.0), reps=256)
    table = sm.run_coverage_curve(cfg)
    c0 = {(r.p, r.n, r.family, r.lam): r.mean_volume for r in table.rows if r.variant == "c0"}
    same = [r for r in table.rows if r.variant in ("c3", "c1*", "c2*")]
    assert len(same) == 72
    for row in same:
        assert row.mean_volume == c0[(row.p, row.n, row.family, row.lam)], row
        assert row.volume_ratio_vs_c0 == 1.0, row


def test_coverage_matches_scalar_construction():
    # The vectorized engine, which sees only each block's row statistics,
    # counts the same draws as the one-observation builder, at every table
    # dims and both families.
    from steinmse.experiments import _DOMAIN_COVERAGE, _stream

    table_dims = (DIMS, sm.ProblemDims(10, 5), sm.ProblemDims(5, 10), sm.ProblemDims(10, 10))
    families, lam, reps = ("james-stein", "positive-part"), 2.0, 64
    cfg = _small_cfg(dims_list=table_dims, families=families, lambda_grid=(lam,), reps=reps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        consts = {(name, dims): sm.matrix_constants(sm.family_from_name(name, dims), dims)
                  for dims in table_dims for name in families}
        table = sm.run_coverage_curve(cfg, consts_map=consts)
    by_key = {(r.p, r.n, r.family, r.variant): r for r in table.rows}
    for di, dims in enumerate(table_dims):
        theta = math.sqrt(lam) * (np.ones(dims.p) / math.sqrt(dims.p))  # as the engine's
        for fi, name in enumerate(families):
            fam = sm.family_from_name(name, dims)
            # Rebuild the same draws the engine used (single block, stream layout).
            x, s, _, _ = _replay(_stream(cfg.seed, _DOMAIN_COVERAGE, fi, di, 0, 0), reps,
                                 theta, dims.n)
            for variant in sm.ConfidenceVariant:
                spec = sm.ConfidenceSpec(variant)
                count = sum(bool(sm.build_confidence_set(spec, sm.Observation(x[i], float(s[i])),
                                                         fam, dims, consts[(name, dims)],
                                                         theta).contains_truth)
                            for i in range(reps))
                row = by_key[(dims.p, dims.n, name, variant.value)]
                assert row.coverage == pytest.approx(count / reps, abs=1e-12), (dims, name,
                                                                                variant)


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
        tables = sm.reproduce_tables([DIMS])
    assert set(tables) == {"table1_gamma", "table2_w", "table3_beta2",
                           "table4_gamma_xi_eta", "table5_w_xi_eta", "beta_per_j"}
    t1 = {row[0]: row for row in tables["table1_gamma"].rows}
    assert t1["james-stein"][3] == pytest.approx(0.6795, abs=5e-4)
    for table in tables.values():
        assert "stderr" not in table.header  # exact constants carry no error
    t5 = {(row[0], row[1]): row for row in tables["table5_w_xi_eta"].rows}
    assert ("w_eta", "james-stein") not in t5  # identically-one marker
    assert ("w_eta", "positive-part") in t5
    paths = sm.write_tables(tables, str(tmp_path), {"dims": "5x5"})
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


def test_coverage_rejects_a_repeated_variant():
    # Rows carry no level, so two rows of one variant could not be told
    # apart, and the C0 volume ratio would have no single C0 row.
    twice = (sm.ConfidenceSpec(sm.ConfidenceVariant.C0, 0.5),
             sm.ConfidenceSpec(sm.ConfidenceVariant.C0, 0.95))
    with pytest.raises(ValueError, match="only once"):
        sm.run_coverage_curve(_small_cfg(reps=10), twice)


def _count_calls(monkeypatch, counts, name, *modules):
    """Replace ``name`` in each module with a wrapper that counts its calls."""
    for mod in modules:
        fn = getattr(mod, name)

        def counted(*args, _fn=fn, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)


def test_each_block_is_scored_once(monkeypatch):
    # One unbiased kernel call per block, whatever the number of kinds or
    # variants; every kind or variant is a clamp of it. The coverage path
    # reaches matrix_eigen_parts through the confidence module.
    import steinmse.confidence as confidence
    import steinmse.experiments as experiments

    counts = {}
    for name in ("estimate_mse_at", "_set_geometry"):
        _count_calls(monkeypatch, counts, name, experiments)
    _count_calls(monkeypatch, counts, "matrix_eigen_parts", experiments, confidence)
    cfg = _small_cfg(lambda_grid=(1.0,), reps=2 * experiments.BLOCK + 7, estimator_kinds=tuple(K),
                     matrix_kinds=tuple(MK))
    blocks = 3

    sm.run_coverage_curve(cfg)
    assert counts == {"_set_geometry": blocks, "matrix_eigen_parts": blocks}
    counts.clear()
    sm.run_mse_risk_curve(cfg)
    assert counts == {"estimate_mse_at": blocks}
    counts.clear()
    sm.run_matrix_risk_curve(cfg, loss="reduction")
    assert counts == {"matrix_eigen_parts": blocks}


def test_each_setup_runs_once_before_the_first_draw(monkeypatch):
    # Each curve sets up every (family, dims) of the walk once, constants
    # and exact truth, and all of them before the first block is drawn. A
    # risk curve then draws each (dims, block) once; coverage draws every
    # (family, dims, lambda, block).
    import steinmse.experiments as experiments

    events = []

    def logged(name):
        fn = getattr(experiments, name)

        def wrapped(*args, **kwargs):
            events.append(name if name == "_draw" else (name, args[0].kind, args[1]))
            return fn(*args, **kwargs)
        monkeypatch.setattr(experiments, name, wrapped)

    for name in ("_draw", "true_risk", "true_mse_matrix", "shrinkage_constants",
                 "matrix_constants"):
        logged(name)
    dims_list, families = (DIMS, sm.ProblemDims(3, 2)), ("james-stein", "positive-part")
    cfg = _small_cfg(dims_list=dims_list, families=families, lambda_grid=(0.0, 3.0),
                     reps=experiments.BLOCK + 1, estimator_kinds=(K.UMVUE, K.PSI1_TR),
                     matrix_kinds=(MK.UMVUE, MK.XI2_ETA2))
    walk = [(sm.family_from_name(name, dims).kind, dims) for dims in dims_list
            for name in families]
    blocks = 2
    for run, made, draws in (
            (sm.run_mse_risk_curve, ("shrinkage_constants", "true_risk"),
             len(dims_list) * blocks),
            (sm.run_matrix_risk_curve, ("matrix_constants", "true_mse_matrix"),
             len(dims_list) * blocks),
            (sm.run_coverage_curve, ("matrix_constants",),
             len(walk) * len(cfg.lambda_grid) * blocks)):
        events.clear()
        run(cfg)
        first = events.index("_draw")
        assert events[first:] == ["_draw"] * draws, run.__name__
        assert events[:first] == [(name, *point) for point in walk for name in made], \
            run.__name__


def test_coverage_refuses_an_uncertified_shape_before_any_draw(monkeypatch):
    # At (17, 21) positive-part the xi1-tr shape of C1 and C1* carries no
    # certificate, and some W makes its l_perp negative. The run is refused
    # while it is set up, naming the variants, the shape, the dims and the
    # family; without C1 and C1* the same run goes through.
    import steinmse.experiments as experiments

    draws = []
    draw = experiments._draw

    def counted(*args):
        draws.append(1)
        return draw(*args)

    monkeypatch.setattr(experiments, "_draw", counted)
    dims = sm.ProblemDims(17, 21)
    fam = sm.family_from_name("positive-part", dims)
    assert not sm.positive_definite_certified(MK.XI1_TR_ETA1, fam, dims,
                                              sm.matrix_constants(fam, dims))
    cfg = _small_cfg(dims_list=(dims,), lambda_grid=(0.0,), reps=500, seed=1)
    with pytest.raises(ValueError, match=r"variant c1, c1\*: the xi1-tr shape is not certified "
                                         r"positive definite at p = 17, n = 21 for the "
                                         r"positive-part family"):
        sm.run_coverage_curve(cfg)
    assert draws == []
    kept = tuple(sm.ConfidenceSpec(v) for v in (sm.ConfidenceVariant.C0, sm.ConfidenceVariant.C2,
                                                sm.ConfidenceVariant.C3,
                                                sm.ConfidenceVariant.C2_STAR))
    table = sm.run_coverage_curve(cfg, kept)
    assert [r.variant for r in table.rows] == ["c0", "c2", "c3", "c2*"] and draws == [1]


def _lookahead_cfg():
    import steinmse.experiments as experiments
    return _small_cfg(dims_list=(DIMS, sm.ProblemDims(3, 2)),
                      families=("james-stein", "positive-part"), lambda_grid=(0.0, 2.5, 9.0),
                      reps=2 * experiments.BLOCK + 7)


def test_lookahead_hands_each_point_its_own_blocks():
    # Every point of the walk scores each of its blocks once, in block
    # order, and gets the row statistics at its own noncentrality: of the
    # shared (dims, block) draw on a risk curve, of its own (family, dims,
    # lambda, block) stream on coverage.
    import steinmse.experiments as experiments
    from steinmse.experiments import _block_sizes, _draw, _grid, _row_statistics, _stream

    cfg = _lookahead_cfg()
    sizes = _block_sizes(cfg.reps)
    assert len(sizes) == 3
    keys = [(fi, di, li) for di in range(2) for fi in range(2) for li in range(3)]
    got = {}

    def setup(name, _fam, dims):
        def score(li):
            pt = (dims, name, cfg.lambda_grid[li])

            def record(*block):
                got.setdefault(pt, []).append([a.copy() for a in block])
                return np.ones(1)
            return record
        return None, score

    for domain in (experiments._DOMAIN_MSE_CURVE, experiments._DOMAIN_MATRIX_CURVE,
                   experiments._DOMAIN_COVERAGE):
        shared = domain != experiments._DOMAIN_COVERAGE
        got.clear()
        walked, used = _grid(cfg, domain, setup)
        assert used == [] and len(walked) == len(keys) == len(got)
        for (fi, di, li), (dims, name, lam, total) in zip(keys, walked):
            assert (name, dims, lam) == (cfg.families[fi], cfg.dims_list[di],
                                         cfg.lambda_grid[li])
            assert total.tolist() == [len(sizes)]
            blocks = got[(dims, name, lam)]
            assert len(blocks) == len(sizes)
            for bi, block in enumerate(blocks):
                key = (0, di, 0, bi) if shared else (fi, di, li, bi)
                want = _row_statistics(math.sqrt(lam), *_draw(
                    _stream(cfg.seed, domain, *key).generator(), sizes[bi], dims.p, dims.n))
                assert len(block) == len(want) == 4
                assert all(np.array_equal(a, b) for a, b in zip(block, want)), (domain, key)


def test_block_scorers_receive_only_row_statistics(monkeypatch):
    # Each block is drawn as per-row statistics, so every array a block
    # scorer sees, in the coverage curve and both risk curves, is one value
    # per draw: no (m, p) array reaches a scorer.
    import steinmse.experiments as experiments

    grid, seen = experiments._grid, []

    def checked_grid(cfg, domain, setup):
        def checked_setup(name, fam, dims):
            consts, score = setup(name, fam, dims)

            def checked_score(li):
                at = score(li)

                def checked(*block):
                    seen.append([(type(a), a.shape) for a in block])
                    return at(*block)
                return checked
            return consts, checked_score
        return grid(cfg, domain, checked_setup)

    monkeypatch.setattr(experiments, "_grid", checked_grid)
    cfg = _small_cfg(lambda_grid=(0.0, 3.0), reps=2 * experiments.BLOCK + 7,
                     estimator_kinds=tuple(K), matrix_kinds=tuple(MK))
    want = [[(np.ndarray, (m,))] * 4 for m in experiments._block_sizes(cfg.reps)
            for _ in cfg.lambda_grid]
    for run in (sm.run_coverage_curve, sm.run_mse_risk_curve, sm.run_matrix_risk_curve):
        seen.clear()
        run(cfg)
        assert seen == want, run.__name__


_EPS = np.finfo(float).eps


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= _EPS,
                    reason="long double is no wider than double here")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(p=st.integers(1, 30), n=st.integers(1, 30), lam=st.floats(0.0, 400.0),
       family=st.sampled_from(("james-stein", "positive-part")),
       seed=st.integers(0, 2 ** 64 - 1), data=st.data())
def test_row_distances_hold_to_a_few_ulps(p, n, lam, family, seed, data):
    # The coverage scorer takes ||x - theta||^2, ||delta - theta||^2 and
    # u'(delta - theta) from the row statistics ||x||^2 and x'theta; each is
    # held against the same quantity summed over the (m, p) draws in long
    # double, within 6 ulps of the scale of its terms (2.4 was the worst seen
    # over 768,000 draws at these ranges) plus the underflow level. The block
    # is drawn as (Z, V, S), with t = ||theta|| + Z; the (m, p) draws they describe,
    # x = t theta/||theta|| + sqrt(V) e, are built in long double.
    from steinmse.confidence import _row_distances
    from steinmse.experiments import _draw, _row_statistics

    direction = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p)))
    assume(np.linalg.norm(direction) > 1e-3)
    theta = math.sqrt(lam) * direction / np.linalg.norm(direction)
    m = 256
    s, w, xx, x_theta = _row_statistics(math.hypot(*theta),
                                        *_draw(sm.RngStream(seed).generator(), m, p, n))
    xl, s_again, t, v = _replay(sm.RngStream(seed), m, theta, n, np.longdouble)
    assert np.array_equal(s, s_again) and np.array_equal(x_theta, math.hypot(*theta) * t)
    assert np.array_equal(xx, t * t + v) and np.array_equal(w, xx / s)
    # Any shrinkage factor of W serves; the families are defined for p >= 3.
    dims = sm.ProblemDims(max(p, 3), n)
    f = sm.shrink_factors(sm.family_from_name(family, dims), w)
    theta_theta = float(theta @ theta)
    dd_x, dd_delta, t = _row_distances(f, xx, x_theta, theta_theta)

    thetal, fl = (a.astype(np.longdouble) for a in (theta, f))
    dl = fl[:, None] * xl - thetal
    want_x = ((xl - thetal) ** 2).sum(axis=1)
    want_delta = (dl * dl).sum(axis=1)
    want_t = (xl * dl).sum(axis=1) / np.sqrt((xl * xl).sum(axis=1))
    tiny = np.finfo(float).tiny
    assert np.all(np.abs(dd_x - want_x) <= 6 * _EPS * (xx + theta_theta) + tiny)
    assert np.all(np.abs(dd_delta - want_delta) <= 6 * _EPS * (f * f * xx + theta_theta) + tiny)
    # ||theta|| is sqrt(lam), which theta'theta loses to underflow at lam = 5e-324.
    assert np.all(np.abs(t - want_t)
                  <= 6 * _EPS * (np.abs(f) * np.sqrt(xx) + math.sqrt(lam)) + tiny)


def test_curve_metadata_records_the_constants_used():
    # Each (family, dims) of the walk, in walk order, with the constants its
    # points used and their provenance; the metadata stays JSON.
    dims_list, families = (DIMS, sm.ProblemDims(3, 2)), ("james-stein", "positive-part")
    cfg = _small_cfg(dims_list=dims_list, families=families, lambda_grid=(1.0,), reps=10,
                     estimator_kinds=(K.UMVUE, K.PSI1_TR), matrix_kinds=(MK.UMVUE, MK.XI2_ETA2))
    walk = [(name, dims.p, dims.n) for dims in dims_list for name in families]
    for run, make in ((sm.run_mse_risk_curve, sm.shrinkage_constants),
                      (sm.run_matrix_risk_curve, sm.matrix_constants),
                      (sm.run_coverage_curve, sm.matrix_constants)):
        records = json.loads(json.dumps(run(cfg).metadata))["constants"]
        assert [(r["family"], r["p"], r["n"]) for r in records] == walk, run.__name__
        for r in records:
            dims = sm.ProblemDims(r["p"], r["n"])
            consts = make(sm.family_from_name(r["family"], dims), dims)
            assert r["provenance"] == consts.provenance == "closed-form"
            if make is sm.shrinkage_constants:
                want = {"alpha": consts.alpha, "w_pn": consts.w_pn, "gamma": consts.gamma}
            else:
                want = {"beta2": consts.beta.beta2, "w_xi": consts.w_xi,
                        "w_eta": consts.w_eta, "gamma_xi": consts.gamma_xi,
                        "gamma_eta": consts.gamma_eta}
            assert {k: r[k] for k in want} == want
    # A run that needs no constants records none.
    plain = _small_cfg(reps=10, estimator_kinds=(K.UMVUE, K.PSI0), matrix_kinds=(MK.XI0_ETA0,))
    assert sm.run_mse_risk_curve(plain).metadata["constants"] == []
    assert sm.run_matrix_risk_curve(plain).metadata["constants"] == []
    c0 = (sm.ConfidenceSpec(sm.ConfidenceVariant.C0),)
    assert sm.run_coverage_curve(plain, c0).metadata["constants"] == []


def test_failed_draw_raises_from_the_curve(monkeypatch):
    import steinmse.experiments as experiments

    boom = FloatingPointError("third block")
    calls = []
    draw = experiments._draw

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise boom
        return draw(*args)

    monkeypatch.setattr(experiments, "_draw", failing)
    for run in (sm.run_mse_risk_curve, sm.run_coverage_curve):
        calls.clear()
        with pytest.raises(FloatingPointError) as info:
            run(_lookahead_cfg())
        assert info.value is boom and len(calls) == 3, run.__name__


def test_no_curve_run_starts_a_thread(monkeypatch):
    # Blocks are drawn and scored on the calling thread: no thread is
    # running beside it while a block is drawn, or after the run.
    import steinmse.experiments as experiments

    before, seen = threading.active_count(), []
    draw = experiments._draw

    def counted(*args):
        seen.append(threading.active_count())
        return draw(*args)

    monkeypatch.setattr(experiments, "_draw", counted)
    cfg = _lookahead_cfg()
    for run in (sm.run_mse_risk_curve, sm.run_matrix_risk_curve, sm.run_coverage_curve):
        seen.clear()
        run(cfg)
        assert seen and set(seen) == {before}, run.__name__
    assert threading.active_count() == before


def test_failed_score_propagates_from_the_curve(monkeypatch):
    import steinmse.experiments as experiments

    def failing(*args):
        raise ZeroDivisionError("first point")

    monkeypatch.setattr(experiments, "_set_geometry", failing)
    with pytest.raises(ZeroDivisionError, match="first point"):
        sm.run_coverage_curve(_lookahead_cfg())


def test_failed_score_after_the_first_point_stops_the_draws(monkeypatch):
    # The fourth score fails: a risk curve has drawn its first shared block
    # and coverage one block per point scored, and nothing more is drawn.
    import steinmse.experiments as experiments

    drawn, taken = [], []
    draw = experiments._draw

    def counted(*args):
        drawn.append(1)
        return draw(*args)

    def score(*block):
        taken.append(1)
        if len(taken) > 3:
            raise ZeroDivisionError("second point")
        return np.zeros(1)

    monkeypatch.setattr(experiments, "_draw", counted)
    for domain, draws in ((experiments._DOMAIN_MSE_CURVE, 1), (experiments._DOMAIN_COVERAGE, 4)):
        drawn.clear()
        taken.clear()
        with pytest.raises(ZeroDivisionError, match="second point"):
            experiments._grid(_lookahead_cfg(), domain, lambda *_: (None, lambda _li: score))
        assert len(taken) == 4 and len(drawn) == draws, domain


@pytest.mark.parametrize("field, one, limit", [("lambda_grid", 1.0, 65536),
                                               ("dims_list", DIMS, 256)])
def test_config_rejects_a_grid_wider_than_its_stream_field(field, one, limit):
    # Found when the configuration is built, not when the walk reaches
    # the first index that does not fit. The family field holds 16, more
    # than there are families to list.
    def grid(count):
        if field == "lambda_grid":
            return tuple(one + i for i in range(count))
        return tuple(sm.ProblemDims(one.p + i, one.n) for i in range(count))

    sm.ExperimentConfig(**{field: grid(limit)})
    with pytest.raises(ValueError, match=f"{limit + 1} .* stream field"):
        sm.ExperimentConfig(**{field: grid(limit + 1)})


@pytest.mark.parametrize("field, entries", [
    ("dims_list", (DIMS, sm.ProblemDims(3, 2), DIMS)),
    ("families", ("james-stein", "positive-part", "james-stein")),
    ("families", ("js", "james-stein")),
    ("lambda_grid", (0.0, 1.0, 1)),
    ("lambda_grid", (0.0, -0.0))])
def test_config_rejects_repeated_entries(field, entries):
    # A repeated dims, family (under any of its names) or noncentrality
    # would write rows that cannot be told apart.
    with pytest.raises(ValueError, match=f"^{field} lists an entry more than once$"):
        sm.ExperimentConfig(**{field: entries})


@pytest.mark.parametrize("run", [sm.run_mse_risk_curve, sm.run_matrix_risk_curve])
def test_risk_row_depends_only_on_its_point(tmp_path, run):
    # A risk curve draws each (dims, block) once for every family and
    # noncentrality, so a row reads the same bytes whatever else the grid
    # holds: the lambda = 5 rows of grid (0, 5) are those of grid (5,), and
    # the positive-part rows are those of a positive-part-only run.
    def lines(**overrides):
        path = tmp_path / "risk.csv"
        run(_small_cfg(reps=5000, **overrides)).write_csv(str(path))
        return path.read_text().splitlines()[1:]

    both = lines(lambda_grid=(0.0, 5.0), families=("james-stein", "positive-part"))
    at5 = [line for line in both if line.split(",")[2:4] == ["positive-part", "5"]]
    assert len(at5) == 2
    assert at5 == lines(lambda_grid=(5.0,))
    pp = [line for line in both if line.split(",")[2] == "positive-part"]
    assert pp == lines(lambda_grid=(0.0, 5.0))


def test_coverage_rows_draw_independent_blocks():
    # Coverage draws each point from its own streams. Shared draws would
    # give every C0 row the same count, since C0 reads only ||X - theta||^2
    # and S, and the run's rows would no longer be independent trials.
    cfg = _small_cfg(lambda_grid=(0.0, 1.0, 2.0, 5.0, 10.0, 20.0), reps=8192)
    table = sm.run_coverage_curve(cfg, (sm.ConfidenceSpec(sm.ConfidenceVariant.C0),))
    hits = [round(row.coverage * cfg.reps) for row in table.rows]
    assert len(hits) == 6 and len(set(hits)) > 1


def test_config_rejects_more_blocks_than_the_block_field():
    import steinmse.experiments as experiments

    sm.ExperimentConfig(reps=2 ** 32 * experiments.BLOCK)
    with pytest.raises(ValueError, match="block indices exceed the 32-bit stream field"):
        sm.ExperimentConfig(reps=2 ** 32 * experiments.BLOCK + 1)


def test_config_has_no_theta_direction():
    # Every curve puts theta along (1, ..., 1): there is no direction to set
    # and none to record.
    with pytest.raises(TypeError, match="theta_direction"):
        _small_cfg(theta_direction="first-axis")
    cfg = _small_cfg(reps=10)
    for table in (sm.run_mse_risk_curve(cfg), sm.run_matrix_risk_curve(cfg),
                  sm.run_coverage_curve(cfg, (sm.ConfidenceSpec(sm.ConfidenceVariant.C0),))):
        assert "theta_direction" not in table.metadata


@pytest.mark.parametrize("target, loss", [("mse", "mse"), ("mse", "reduction"),
                                          ("matrix", "matrix"), ("matrix", "reduction")])
def test_risk_curve_without_the_unbiased_kind_writes_nan_diffs(tmp_path, target, loss):
    cfg = _small_cfg(reps=500, estimator_kinds=(K.PSI0, K.PSI2_TR),
                     matrix_kinds=(MK.XI0_ETA0, MK.XI2_TR_ETA2))
    run = sm.run_mse_risk_curve if target == "mse" else sm.run_matrix_risk_curve
    table = run(cfg, loss=loss)
    table.write_csv(str(tmp_path / "risk.csv"))
    lines = (tmp_path / "risk.csv").read_text().splitlines()[1:]
    assert len(lines) == len(table.rows) == 4
    for row, line in zip(table.rows, lines):
        assert np.isfinite(row.risk) and np.isfinite(row.stderr) and row.stderr > 0
        assert line.split(",")[-2:] == ["nan", "nan"]
