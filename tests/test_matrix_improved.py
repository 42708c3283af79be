import warnings

import numpy as np
import pytest

import steinmse as sm
from _oracles import (js_beta_moment_exact, js_plus_beta_moment_quad, moment_curve_kernel,
                      quadratic_root, ratio_mean_monte_carlo)

MK = sm.MatrixEstimatorKind
DIMS = sm.ProblemDims(5, 5)
JS = sm.ShrinkageFamily.james_stein(DIMS)
PP = sm.ShrinkageFamily.positive_part(DIMS)

# Exact second-moment supremum for the constant rule: attained at j=0 and
# j=1, both equal to k n / p.
JS_BETA2_EXACT = (3.0 / 7.0) * 5.0 / 5.0


TABLE_DIMS = [(5, 5), (10, 5), (5, 10), (10, 10)]


def _custom_clone(fam):
    """The same rule as a custom family, which routes it to quadrature."""
    return sm.ShrinkageFamily.custom(fam.phi, fam.phi_prime, label="clone")


class TestBOfW:
    def test_zero_phi(self):
        zero = lambda w: np.zeros(np.shape(w)) if np.ndim(w) else 0.0
        fam = sm.ShrinkageFamily.custom(zero, zero)
        assert float(sm.b_of_w(fam, DIMS, 1.3)) == 0.0

    def test_js_value(self):
        # 4k/W + (n+2)k^2/W with k=3/7 at W=1: 12/7 + 9/7 = 3.
        assert float(sm.b_of_w(JS, DIMS, 1.0)) == pytest.approx(3.0, rel=1e-13)

    def test_positive_part_below_kink(self):
        # phi=W, phi'=1 there: 4 + (n+2)W - 4 - 4W = (n-2)W.
        for w in (0.05, 0.2, 0.4):
            assert float(sm.b_of_w(PP, DIMS, w)) == pytest.approx((DIMS.n - 2.0) * w,
                                                                  rel=1e-12)


class TestBetaJ:
    def test_zero_phi_is_degenerate(self):
        zero = lambda w: np.zeros(np.shape(w)) if np.ndim(w) else 0.0
        fam = sm.ShrinkageFamily.custom(zero, zero)
        assert sm.beta_j(2, fam, DIMS, 3) == 0.0

    @pytest.mark.parametrize("order,j", [(1, 0), (2, 0), (2, 1), (2, 5), (1, 50), (1, 200)])
    def test_js_matches_exact_moments(self, order, j):
        value = sm.beta_j(order, JS, DIMS, j)
        assert value == pytest.approx(js_beta_moment_exact(order, 5, 5, j), rel=1e-12)

    @pytest.mark.parametrize("order,j", [(1, 0), (2, 0), (2, 1), (2, 5)])
    def test_js_monte_carlo_matches_exact_moments(self, order, j):
        # Validates the Monte Carlo oracle that checks the quadrature below.
        kernel = moment_curve_kernel(order, JS.phi, JS.phi_prime, 5, 5, j)
        value, stderr = ratio_mean_monte_carlo(kernel, 5 + 2 * j, 5, 400_000, seed=42 + j)
        assert abs(value - js_beta_moment_exact(order, 5, 5, j)) < 4.0 * stderr

    @pytest.mark.parametrize("p,n", [(5, 1), (5, 2), (5, 5), (10, 10)])
    def test_positive_part_matches_quadrature_oracle(self, p, n):
        dims = sm.ProblemDims(p, n)
        fam = sm.ShrinkageFamily.positive_part(dims)
        for order in (1, 2):
            for j in (0, 1, 3, 50, 200):
                value = sm.beta_j(order, fam, dims, j)
                assert value == pytest.approx(js_plus_beta_moment_quad(order, p, n, j),
                                              rel=1e-9)

    @pytest.mark.parametrize("order,j", [(1, 0), (2, 0), (2, 3)])
    def test_positive_part_monte_carlo_matches_closed_form(self, order, j):
        kernel = moment_curve_kernel(order, PP.phi, PP.phi_prime, 5, 5, j)
        value, stderr = ratio_mean_monte_carlo(kernel, 5 + 2 * j, 5, 10**6, seed=54 + j)
        assert abs(value - sm.beta_j(order, PP, DIMS, j)) < 4.0 * stderr

    @pytest.mark.parametrize("p,n", [(3, 5), (5, 1), (5, 2), (5, 5), (10, 10)])
    def test_quadrature_matches_closed_forms_on_custom_clones(self, p, n):
        dims = sm.ProblemDims(p, n)
        for fam in (sm.ShrinkageFamily.james_stein(dims), sm.ShrinkageFamily.positive_part(dims)):
            clone = _custom_clone(fam)
            for order in (1, 2):
                for j in (0, 1, 3, 50, 200):
                    # abs 1e-12 only matters where the exact value is 0: the
                    # James-Stein first curve at (3, 5), j = 1.
                    assert sm.beta_j(order, clone, dims, j) == pytest.approx(
                        sm.beta_j(order, fam, dims, j), rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("order,j", [(1, 0), (2, 0), (1, 3), (2, 3)])
    def test_quadrature_matches_monte_carlo_on_smooth_rule(self, order, j):
        # phi = cW/(W+c) has no closed-form moment curve.
        c = DIMS.shrink_constant
        phi = lambda w: c * w / (w + c)
        dphi = lambda w: c * c / ((w + c) * (w + c))
        fam = sm.ShrinkageFamily.custom(phi, dphi, label="smooth")
        kernel = moment_curve_kernel(order, phi, dphi, 5, 5, j)
        value, stderr = ratio_mean_monte_carlo(kernel, 5 + 2 * j, 5, 400_000, seed=60 + j)
        assert abs(sm.beta_j(order, fam, DIMS, j) - value) < 4.0 * stderr

    def test_large_j_limit_drops_second_kernel(self):
        # The b-term scales as 1/(p+2j); at j=200 the curve is within 2% of
        # the first term alone, 2 k n / (p+2j-2).
        j = 200
        value = sm.beta_j(2, JS, DIMS, j)
        first_term = 2.0 * (3.0 / 7.0) * 5.0 / (5.0 + 2.0 * j - 2.0)
        assert abs(value - first_term) < first_term * 0.02


@pytest.fixture(scope="module")
def js_consts():
    return sm.beta_constants(JS, DIMS, j_max=20)


class TestBetaConstants:
    def test_supremum_at_small_j(self, js_consts):
        # The exact curve ties at j=0 and j=1; the smaller j is reported.
        assert js_consts.argmax_j == 0
        assert js_consts.beta2 == pytest.approx(JS_BETA2_EXACT, rel=1e-12)

    def test_first_moment_nonnegative(self, js_consts):
        assert js_consts.beta1 >= 0.0
        assert all(v >= 0.0 for _, v in js_consts.per_j_beta1)

    def test_provenance(self, js_consts):
        assert js_consts.method == "closed-form"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            quad = sm.beta_constants(_custom_clone(JS), DIMS, j_max=10)
        assert quad.method == "quadrature"
        assert quad.beta2 == pytest.approx(JS_BETA2_EXACT, rel=1e-8)

    def test_tail_checks_present(self, js_consts):
        js_scanned = [j for j, _ in js_consts.per_j_beta2]
        assert js_scanned[-2:] == [40, 80]

    def test_boundary_warning_fires(self):
        # The first-moment curve of the constant rule decreases toward its
        # j -> infinity limit, so the scan minimum sits at the tail check;
        # a quadrature family has no limit in hand and warns.
        with pytest.warns(RuntimeWarning, match="scan boundary"):
            sm.beta_constants(_custom_clone(JS), DIMS, j_max=10)

    @pytest.mark.parametrize("p,n", TABLE_DIMS + [(4, 5), (3, 5)])
    @pytest.mark.parametrize("name", ["james-stein", "positive-part"])
    def test_built_in_limit_settles_the_scan(self, name, p, n):
        dims = sm.ProblemDims(p, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bc = sm.beta_constants(sm.family_from_name(name, dims), dims)
        scan_min = min(v for _, v in bc.per_j_beta1)
        if p >= 4:
            assert scan_min > 0.0
            assert bc.beta1 == 0.0 and bc.argmin_j is None
        else:
            assert bc.beta1 == scan_min < 0.0
            assert bc.argmin_j < 10

    def test_js_interior_minimum_at_p3(self):
        dims = sm.ProblemDims(3, 5)
        bc = sm.beta_constants(sm.ShrinkageFamily.james_stein(dims), dims)
        assert bc.argmin_j == 3
        assert bc.beta1 == pytest.approx(-20.0 / 441.0, rel=1e-12)

    @pytest.mark.parametrize("p,n", TABLE_DIMS)
    def test_js_argmax_tie_breaks_to_smallest_j(self, p, n):
        dims = sm.ProblemDims(p, n)
        assert sm.beta_constants(sm.ShrinkageFamily.james_stein(dims), dims).argmax_j == 0

    @pytest.mark.parametrize("name", ["james-stein", "positive-part"])
    def test_first_moment_nonnegative_at_larger_dims(self, name):
        d10 = sm.ProblemDims(10, 10)
        fam = sm.family_from_name(name, d10)
        bc = sm.beta_constants(fam, d10, j_max=12)
        assert bc.beta1 >= 0.0

    def test_j_max_validation(self):
        with pytest.raises(ValueError):
            sm.beta_constants(JS, DIMS, j_max=5)


class TestRoots:
    def test_js_xi_root_against_quadratic(self):
        # With the exact beta2 the xi equation reduces to
        # W(1+W) = 2p(n+p+2)/(n(n+2)).
        w_xi, w_eta = sm.solve_w_xi_eta(JS, DIMS, JS_BETA2_EXACT)
        want = quadratic_root(2.0 * 5.0 * 12.0 / (5.0 * 7.0))
        assert w_xi == pytest.approx(want, abs=1e-9)
        assert w_eta is None  # g3/g1 = (p+2)/2 > 1 for the constant rule

    def test_gamma_certificates(self):
        w_xi, w_eta = sm.solve_w_xi_eta(JS, DIMS, JS_BETA2_EXACT)
        g_xi, g_eta = sm.gamma_xi_eta(DIMS, w_xi, w_eta, JS_BETA2_EXACT)
        assert g_xi == pytest.approx(5.0 * (1.0 + w_xi) * JS_BETA2_EXACT / 12.0, rel=1e-14)
        assert g_eta is None
        assert g_xi < 1.0

    def test_positive_part_has_eta_root(self):
        w_xi, w_eta = sm.solve_w_xi_eta(PP, DIMS, 0.5332)
        assert w_xi is not None and w_xi > 0
        assert w_eta is not None and 0 < w_eta < DIMS.shrink_constant
        # Both roots satisfy their defining equations.
        gf = sm.g_functions(PP, DIMS)
        c = 0.5332 / 12.0
        assert (1.0 + w_xi) * c / float(gf.g1(w_xi)) == pytest.approx(1.0, abs=1e-9)
        lhs = (float(gf.g3(w_eta)) + (1.0 + w_eta) * c) / float(gf.g1(w_eta))
        assert lhs == pytest.approx(1.0, abs=1e-9)

    def test_beta2_must_be_positive(self):
        with pytest.raises(ValueError):
            sm.solve_w_xi_eta(JS, DIMS, 0.0)


@pytest.fixture(scope="module")
def pp_consts():
    return sm.matrix_constants(PP, DIMS, j_max=20)


@pytest.fixture(scope="module")
def js_matrix_consts():
    return sm.matrix_constants(JS, DIMS, j_max=20)


class TestMatrixEstimates:
    def test_umvue_kind_reproduces_unbiased_matrix(self):
        obs = sm.Observation([1.2, -0.4, 0.3, 0.8, 0.05], 1.9)
        a = sm.estimate_mse_matrix(MK.UMVUE, obs, PP, DIMS)
        b = sm.umvue_mse_matrix(obs, PP, DIMS)
        assert a.iso == b.iso and a.axial == b.axial and a.scale == b.scale

    def test_xi0_nonnegative_definite_everywhere(self):
        rng = np.random.default_rng(50)
        w = np.exp(rng.uniform(-10, 5, 300_000))
        for fam in (JS, PP):
            l_perp, l_axis = sm.matrix_eigen_parts(MK.XI0_ETA0, w, fam, DIMS)
            assert np.all(l_perp >= 0.0)
            assert np.all(l_axis >= 0.0)

    def test_xi2_eigenvalue_floor(self, js_matrix_consts):
        # Floor S(1/n - beta2/(n+2)); verified on the assembled matrix.
        floor = 1.0 / DIMS.n - js_matrix_consts.beta.beta2 / (DIMS.n + 2.0)
        assert floor == pytest.approx(0.139, abs=0.01)
        obs = sm.Observation([0.05, 0, 0, 0, 0], 1.3)
        mat = sm.estimate_mse_matrix(MK.XI2_ETA2, obs, JS, DIMS, js_matrix_consts)
        assert np.min(mat.eigenvalues()) >= obs.s * floor - 1e-15

    def test_positive_definite_kinds(self, pp_consts):
        rng = np.random.default_rng(51)
        w = np.exp(rng.uniform(-10, 5, 200_000))
        for kind in (MK.XI1_ETA1, MK.XI2_ETA2, MK.XI1_TR_ETA1, MK.XI2_TR_ETA2):
            assert sm.positive_definite_certified(kind, PP, DIMS, pp_consts)
            l_perp, l_axis = sm.matrix_eigen_parts(kind, w, PP, DIMS, pp_consts)
            assert np.all(l_perp > 0.0)
            assert np.all(l_axis > 0.0)

    def test_xi_band_invariant(self, pp_consts):
        # Each emitted xi respects the admissibility band: the recovered
        # xi from l_perp never exceeds 1/(n g1) and never undercuts the
        # lower bound set by the printed n+p+1 cap.
        w = np.geomspace(1e-3, 50.0, 500)
        gf = sm.g_functions(PP, DIMS)
        g1 = np.asarray(gf.g1(w))
        for kind in (MK.XI0_ETA0, MK.XI1_TR_ETA1, MK.XI2_TR_ETA2):
            l_perp, _ = sm.matrix_eigen_parts(kind, w, PP, DIMS, pp_consts)
            xi = (1.0 / DIMS.n - l_perp) / g1
            upper = 1.0 / (DIMS.n * g1)
            lower = (1.0 / DIMS.n - (1.0 + w) / (DIMS.n + DIMS.p + 1.0)) / g1
            assert np.all(xi <= upper + 1e-12)
            assert np.all(xi >= lower - 1e-12)

    def test_truncated_cap_uses_printed_denominator(self, pp_consts):
        # At small W the truncated kinds sit exactly on (1+W)/(n+p+1).
        w = 0.01
        l1, _ = sm.matrix_eigen_parts(MK.XI1_TR_ETA1, w, PP, DIMS, pp_consts)
        assert float(l1) == pytest.approx((1.0 + w) / 11.0, rel=1e-12)

    def test_missing_constants_raise(self):
        obs = sm.Observation([1.0, 0, 0, 0, 0], 1.0)
        for kind in (MK.XI1_ETA1, MK.XI2_ETA2, MK.XI1_TR_ETA1, MK.XI2_TR_ETA2):
            with pytest.raises(ValueError):
                sm.estimate_mse_matrix(kind, obs, PP, DIMS, None)

    def test_trace_is_valid_scalar_estimate(self, pp_consts):
        rng = np.random.default_rng(52)
        for _ in range(20):
            obs = sm.Observation(rng.standard_normal(5), float(rng.uniform(0.2, 4.0)))
            m0 = sm.estimate_mse_matrix(MK.XI0_ETA0, obs, PP, DIMS)
            assert np.isfinite(m0.trace()) and m0.trace() >= 0.0
            m2 = sm.estimate_mse_matrix(MK.XI2_TR_ETA2, obs, PP, DIMS, pp_consts)
            assert np.isfinite(m2.trace()) and m2.trace() > 0.0


def test_reported_constants_match_printed_values(pp_consts, js_matrix_consts):
    # Published values for (p, n) = (5, 5), at their original tolerances.
    assert js_matrix_consts.beta.beta2 == pytest.approx(0.4260, abs=0.02)
    assert pp_consts.beta.beta2 == pytest.approx(0.5332, abs=0.02)
    assert pp_consts.beta.argmax_j == 0
    assert js_matrix_consts.w_xi == pytest.approx(1.4198, abs=0.03)
    assert pp_consts.w_xi == pytest.approx(1.2336, abs=0.03)
    assert pp_consts.w_eta == pytest.approx(0.2185, abs=0.03)
    assert js_matrix_consts.gamma_xi == pytest.approx(0.4312, abs=0.03)
    assert pp_consts.gamma_xi == pytest.approx(0.4963, abs=0.03)
    assert pp_consts.gamma_eta == pytest.approx(0.2708, abs=0.03)
    assert js_matrix_consts.w_eta is None and js_matrix_consts.gamma_eta is None
