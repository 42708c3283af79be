import numpy as np
import pytest

import steinmse as sm
from steinmse.mse_improved import alpha_pn, gamma_pn, solve_w_pn
from steinmse.shrinkage import risk_reduction_integrand
from steinmse.umvue import a_of_w
from _oracles import (js_plus_alpha_quad, observation_draws, quadratic_root,
                      ratio_mean_monte_carlo, true_risk_monte_carlo)

K = sm.MseEstimatorKind
DIMS = sm.ProblemDims(5, 5)
JS = sm.ShrinkageFamily.james_stein(DIMS)
PP = sm.ShrinkageFamily.positive_part(DIMS)


def _js_clone_as_custom(dims):
    k = dims.shrink_constant
    phi = lambda w: np.full(np.shape(w), k) if np.ndim(w) else k
    dphi = lambda w: np.zeros(np.shape(w)) if np.ndim(w) else 0.0
    return sm.ShrinkageFamily.custom(phi, dphi, label="js-clone")


def _pp_clone_as_custom():
    return sm.ShrinkageFamily.custom(PP.phi, PP.phi_prime, label="pp-clone")


class TestAOfW:
    def test_js_closed_form(self):
        # n(p-2)^2 / (p(n+2)^2 W) = 9/49 at (5,5), W=1.
        assert float(a_of_w(JS, DIMS, 1.0)) == pytest.approx(9.0 / 49.0, rel=1e-13)

    def test_zero_phi(self):
        zero = lambda w: np.zeros(np.shape(w)) if np.ndim(w) else 0.0
        fam = sm.ShrinkageFamily.custom(zero, zero)
        assert float(a_of_w(fam, DIMS, 0.7)) == pytest.approx(0.0, abs=1e-12)

    def test_unbiased_estimate_identity(self):
        rng = np.random.default_rng(1)
        for fam in (JS, PP):
            for _ in range(8):
                obs = sm.Observation(rng.standard_normal(5), float(rng.uniform(0.2, 5.0)))
                lhs = DIMS.p * obs.s * (1.0 - float(a_of_w(fam, DIMS, obs.w))) / DIMS.n
                assert lhs == pytest.approx(sm.umvue_mse(obs, fam, DIMS), rel=1e-10)


class TestAlpha:
    def test_js_closed_forms(self):
        assert alpha_pn(JS, DIMS) == pytest.approx(15.0 / 7.0, rel=1e-14)
        d10 = sm.ProblemDims(10, 10)
        assert alpha_pn(sm.ShrinkageFamily.james_stein(d10), d10) == pytest.approx(
            20.0 / 3.0, rel=1e-14)

    def test_positive_part_beats_js_at_zero_signal(self):
        assert alpha_pn(PP, DIMS) > 15.0 / 7.0

    def test_positive_part_matches_quadrature_oracle(self):
        assert alpha_pn(PP, DIMS) == pytest.approx(js_plus_alpha_quad(5, 5), rel=1e-9)

    @pytest.mark.parametrize("p,n", [(5, 1), (5, 2), (10, 5), (5, 10), (10, 10)])
    def test_positive_part_matches_quadrature_oracle_across_dims(self, p, n):
        dims = sm.ProblemDims(p, n)
        alpha = alpha_pn(sm.ShrinkageFamily.positive_part(dims), dims)
        assert alpha == pytest.approx(js_plus_alpha_quad(p, n), rel=1e-9)

    def test_monte_carlo_matches_quadrature_oracle(self):
        # alpha is p minus the risk at zero signal.
        risk, se = true_risk_monte_carlo(PP, DIMS, 0.0, 400_000, sm.RngStream(32).generator())
        assert abs(DIMS.p - risk - js_plus_alpha_quad(5, 5)) < 4.0 * se

    @pytest.mark.parametrize("p,n", [(3, 5), (5, 1), (5, 2), (5, 5), (10, 10)])
    def test_quadrature_matches_closed_forms_on_custom_clones(self, p, n):
        dims = sm.ProblemDims(p, n)
        for fam in (sm.ShrinkageFamily.james_stein(dims), sm.ShrinkageFamily.positive_part(dims)):
            clone = sm.ShrinkageFamily.custom(fam.phi, fam.phi_prime, label="clone")
            assert alpha_pn(clone, dims) == pytest.approx(alpha_pn(fam, dims), rel=1e-8)

    def test_quadrature_matches_monte_carlo_on_smooth_rule(self):
        c = DIMS.shrink_constant
        phi = lambda w: c * w / (w + c)
        dphi = lambda w: c * c / ((w + c) * (w + c))
        fam = sm.ShrinkageFamily.custom(phi, dphi, label="smooth")
        value, stderr = ratio_mean_monte_carlo(
            lambda w: risk_reduction_integrand(fam, DIMS, w), 5, 5, 400_000, seed=37)
        assert abs(alpha_pn(fam, DIMS) - value) < 4.0 * stderr


class TestRoots:
    @pytest.mark.parametrize("p,n", [(5, 5), (10, 5), (5, 10), (10, 10)])
    def test_js_root_solves_quadratic(self, p, n):
        dims = sm.ProblemDims(p, n)
        fam = sm.ShrinkageFamily.james_stein(dims)
        alpha = alpha_pn(fam, dims)
        w = solve_w_pn(fam, dims, alpha)
        want = quadratic_root((n + p + 2.0) * (p - 2.0) / (n * (n + 2.0)))
        assert w == pytest.approx(want, abs=1e-12)
        # The root satisfies the defining equation.
        lhs = (1.0 + w) / float(a_of_w(fam, dims, w))
        assert lhs == pytest.approx(p * (n + p + 2.0) / (n * alpha), rel=1e-10)

    def test_bisection_path_agrees_with_analytic(self):
        # Route the same rule through the general path: quadrature-based
        # a(W) plus bracketed bisection must land on the analytic root.
        clone = _js_clone_as_custom(DIMS)
        alpha = alpha_pn(JS, DIMS)
        w_generic = solve_w_pn(clone, DIMS, alpha)
        w_analytic = solve_w_pn(JS, DIMS, alpha)
        assert w_generic == pytest.approx(w_analytic, abs=1e-7)

    def test_positive_part_root_near_reported(self):
        alpha = alpha_pn(PP, DIMS)
        w = solve_w_pn(PP, DIMS, alpha)
        assert w == pytest.approx(0.5357, abs=0.01)
        assert gamma_pn(DIMS, w) == pytest.approx(0.6399, abs=0.01)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            solve_w_pn(JS, DIMS, 0.0)
        with pytest.raises(ValueError):
            solve_w_pn(JS, DIMS, 5.0)

    @pytest.mark.parametrize("w_pn", [0.0, -0.5, float("nan")])
    def test_gamma_needs_a_positive_root(self, w_pn):
        with pytest.raises(ValueError, match="w_pn must be positive"):
            gamma_pn(DIMS, w_pn)

    def test_gamma_identity(self):
        w = solve_w_pn(JS, DIMS, alpha_pn(JS, DIMS))
        assert gamma_pn(DIMS, w) == pytest.approx(5.0 * (1.0 + w) / 12.0, rel=1e-15)


@pytest.fixture(scope="module")
def consts():
    return sm.shrinkage_constants(JS, DIMS)


class TestEstimates:
    def test_psi0_truncates_negative(self, consts):
        # W = 0.1: the unbiased value 1 - (9/49)/0.1 is negative, the cap
        # 5(1.1)/12 is positive, so the output is exactly zero.
        obs = sm.Observation([np.sqrt(0.1), 0, 0, 0, 0], 1.0)
        assert sm.umvue_mse(obs, JS, DIMS) < 0
        assert sm.estimate_mse(K.PSI0, obs, JS, DIMS) == 0.0

    def test_psi0_interior_case(self, consts):
        # W = 1: the unbiased value 40/49 sits inside (0, cap = 10/12).
        obs = sm.Observation([1.0, 0, 0, 0, 0], 1.0)
        base = sm.umvue_mse(obs, JS, DIMS)
        cap = DIMS.p * obs.s * (1.0 + obs.w) / (DIMS.n + DIMS.p + 2.0)
        assert 0 < base < cap
        assert sm.estimate_mse(K.PSI0, obs, JS, DIMS) == pytest.approx(base, rel=1e-14)

    def test_psi2_floor_value(self, consts):
        # Floor (pS/n)(1 - alpha/p) = 4S/7 at (5,5) with the closed-form alpha.
        s = 2.3
        obs = sm.Observation([np.sqrt(0.01 * s), 0, 0, 0, 0], s)
        got = sm.estimate_mse(K.PSI2, obs, JS, DIMS, consts)
        assert got == pytest.approx(4.0 * s / 7.0, rel=1e-12)
        assert got > 0

    def test_psi1_floor_value(self, consts):
        s = 1.0
        obs = sm.Observation([np.sqrt(0.01), 0, 0, 0, 0], s)
        floor = (DIMS.p * s / DIMS.n) * (1.0 - consts.gamma * consts.alpha / DIMS.p)
        assert sm.estimate_mse(K.PSI1, obs, JS, DIMS, consts) == pytest.approx(floor, rel=1e-12)

    def test_tr_variants_respect_cap(self, consts):
        rng = np.random.default_rng(8)
        w = rng.uniform(0.01, 6.0, 3000)
        s = rng.uniform(0.2, 5.0, 3000)
        cap = DIMS.p * s * (1.0 + w) / (DIMS.n + DIMS.p + 2.0)
        for kind in (K.PSI0, K.PSI1_TR, K.PSI2_TR):
            vals = np.asarray(sm.estimate_mse_at(kind, w, s, JS, DIMS, consts))
            assert np.all(vals >= 0.0)
            assert np.all(vals <= cap)

    def test_kinds_coincide_with_unbiased_inside_bounds(self, consts):
        obs = sm.Observation([1.0, 0, 0, 0, 0], 1.0)
        base = sm.umvue_mse(obs, JS, DIMS)
        floor1 = (DIMS.p * obs.s / DIMS.n) * (1.0 - consts.gamma * consts.alpha / DIMS.p)
        floor2 = (DIMS.p * obs.s / DIMS.n) * (1.0 - consts.alpha / DIMS.p)
        assert base > max(floor1, floor2)
        for kind in K:
            assert sm.estimate_mse(kind, obs, JS, DIMS, consts) == pytest.approx(
                base, rel=1e-12)

    def test_missing_constants_raise(self):
        obs = sm.Observation([1.0, 0, 0, 0, 0], 1.0)
        for kind in (K.PSI1, K.PSI2, K.PSI1_TR, K.PSI2_TR):
            with pytest.raises(ValueError):
                sm.estimate_mse(kind, obs, JS, DIMS, None)

    def test_positivity_battery(self, consts):
        rng = np.random.default_rng(9)
        w = np.exp(rng.uniform(-8, 4, 200_000))
        s = rng.uniform(0.05, 10.0, 200_000)
        psi2 = np.asarray(sm.estimate_mse_at(K.PSI2, w, s, JS, DIMS, consts))
        assert np.all(psi2 > 0)
        assert sm.psi1_positive_certified(consts, DIMS)
        psi1 = np.asarray(sm.estimate_mse_at(K.PSI1, w, s, JS, DIMS, consts))
        assert np.all(psi1 > 0)


def _cap_binds_somewhere(fam, dims):
    """Whether PSI0's upper cap pS(1+W)/(n+p+2) lies strictly below the
    zero-truncated unbiased estimate at some W. That needs n(1+W) < n+p+2,
    so a grid on (0, (p+2)/n] covers every W where it can happen."""
    grid = np.linspace(1e-4, (dims.p + 2.0) / dims.n, 4001)
    s = np.ones_like(grid)
    psi0 = np.asarray(sm.estimate_mse_at(K.PSI0, grid, s, fam, dims))
    tr0 = np.asarray(sm.estimate_mse_at(K.TRUNCATED_ZERO, grid, s, fam, dims))
    return bool(np.any(psi0 < tr0))


class TestTruncationBand:
    def test_small_dims_band_nonempty(self):
        # At (5,5) the quadratic 343W - 245W^2 >= 108 has real roots, so
        # the band where the upper cap strictly binds is nonempty.
        assert _cap_binds_somewhere(JS, DIMS)

    def test_large_dims_band_empty(self):
        d = sm.ProblemDims(10, 10)
        assert not _cap_binds_somewhere(sm.ShrinkageFamily.james_stein(d), d)

    @pytest.mark.parametrize("p,n", [(5, 5), (10, 5), (5, 10), (10, 10)])
    @pytest.mark.parametrize("name", ["james-stein", "positive-part"])
    def test_custom_clone_band_matches_built_in(self, name, p, n):
        # The clone's g-kernels come from quadrature; the positive-part
        # clone's integrands have an undeclared kink and jump at W = k.
        dims = sm.ProblemDims(p, n)
        fam = sm.family_from_name(name, dims)
        clone = sm.ShrinkageFamily.custom(fam.phi, fam.phi_prime, label="clone")
        assert _cap_binds_somewhere(clone, dims) == _cap_binds_somewhere(fam, dims)

    def test_psi0_beats_plain_truncation_when_band_nonempty(self):
        # Paired Monte Carlo: on the nonempty band the double truncation
        # dominates max(0, unbiased) as well.
        assert _cap_binds_somewhere(JS, DIMS)
        for li, lam in enumerate((0.0, 2.0, 8.0)):
            risk_true = sm.true_risk(JS, DIMS, lam)
            g = sm.RngStream(36, li).generator()
            reps = 50_000
            theta = np.sqrt(lam / DIMS.p) * np.ones(DIMS.p)
            x = theta + g.standard_normal((reps, DIMS.p))
            s = g.chisquare(DIMS.n, reps)
            w = np.einsum("ij,ij->i", x, x) / s
            loss_tr0 = (np.asarray(sm.estimate_mse_at(K.TRUNCATED_ZERO, w, s, JS, DIMS))
                        - risk_true) ** 2
            loss_psi0 = (np.asarray(sm.estimate_mse_at(K.PSI0, w, s, JS, DIMS))
                         - risk_true) ** 2
            diff = loss_psi0 - loss_tr0
            se = diff.std(ddof=1) / np.sqrt(reps)
            assert diff.mean() <= 3.0 * se


def test_constants_builder_provenance():
    sc_js = sm.shrinkage_constants(JS, DIMS)
    assert sc_js.provenance == "closed-form"
    sc_pp = sm.shrinkage_constants(PP, DIMS)
    assert sc_pp.provenance == "closed-form"
    assert 0 < sc_pp.alpha < DIMS.p
    sc_custom = sm.shrinkage_constants(_pp_clone_as_custom(), DIMS)
    assert sc_custom.provenance == "quadrature"
    assert sc_custom.alpha == pytest.approx(sc_pp.alpha, rel=1e-8)


def _written_out(kind, w, s, fam, dims, consts):
    """Each kind's estimate in the expressions it had before the kinds
    became clamps of one unbiased estimate."""
    p, n = dims.p, dims.n
    base = p * s / n * (1.0 - a_of_w(fam, dims, w))
    cap = p * s * (1.0 + w) / (n + p + 2.0)
    floor1 = (p * s / n) * (1.0 - consts.gamma * consts.alpha / p)
    floor2 = (p * s / n) * (1.0 - consts.alpha / p)
    return {K.UMVUE: base, K.TRUNCATED_ZERO: np.maximum(base, 0.0),
            K.PSI0: np.minimum(np.maximum(base, 0.0), cap),
            K.PSI1: np.maximum(base, floor1), K.PSI2: np.maximum(base, floor2),
            K.PSI1_TR: np.minimum(np.maximum(base, floor1), cap),
            K.PSI2_TR: np.minimum(np.maximum(base, floor2), cap)}[kind]


@pytest.mark.parametrize("fam_name", ["james-stein", "positive-part"])
@pytest.mark.parametrize("p,n", [(5, 5), (3, 1)])
def test_every_kind_is_a_clamp_of_the_unbiased_estimate(fam_name, p, n):
    # The risk curves score each block's unbiased estimate once and clamp
    # it per kind; that must equal the public per-kind call bit for bit,
    # on both sides of the positive-part kink and of the root w_pn.
    from steinmse.mse_improved import _clamp_mse

    dims = sm.ProblemDims(p, n)
    fam = sm.family_from_name(fam_name, dims)
    consts = sm.shrinkage_constants(fam, dims)
    w = np.concatenate([np.geomspace(1e-4, 1e3, 400),
                        *(np.nextafter(c, [0.0, c, np.inf])
                          for c in (dims.shrink_constant, consts.w_pn))])
    s = np.linspace(0.2, 5.0, w.size)
    base = sm.estimate_mse_at(K.UMVUE, w, s, fam, dims)
    for kind in K:
        public = sm.estimate_mse_at(kind, w, s, fam, dims, consts)
        assert np.array_equal(_clamp_mse(kind, base, w, s, dims, consts), public), kind
        assert np.array_equal(_written_out(kind, w, s, fam, dims, consts), public), kind


def test_umvue_kind_is_umvue_mse_bit_for_bit():
    # One unbiased kernel: the one-observation estimate and the UMVUE kind
    # agree in every bit, on both sides of the positive-part kink and at
    # small W, where the estimate is a difference of large terms.
    rng = np.random.default_rng(71)
    for p, n in [(5, 5), (10, 5), (3, 1), (5, 10)]:
        dims = sm.ProblemDims(p, n)
        for name in ("james-stein", "positive-part"):
            fam = sm.family_from_name(name, dims)
            for x, s in observation_draws(rng, p, n, 200):
                obs = sm.Observation(x, s)
                assert sm.estimate_mse(K.UMVUE, obs, fam, dims) == sm.umvue_mse(obs, fam, dims)
    clone = _pp_clone_as_custom()
    for x, s in observation_draws(rng, DIMS.p, DIMS.n, 10):
        obs = sm.Observation(x, s)
        assert sm.estimate_mse(K.UMVUE, obs, clone, DIMS) == sm.umvue_mse(obs, clone, DIMS)
