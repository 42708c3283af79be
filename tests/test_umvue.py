import numpy as np
import pytest

import steinmse as sm


DIMS = sm.ProblemDims(5, 5)
JS = sm.ShrinkageFamily.james_stein(DIMS)
PP = sm.ShrinkageFamily.positive_part(DIMS)


def _zero_family():
    zero = lambda w: np.zeros(np.shape(w)) if np.ndim(w) else 0.0
    return sm.ShrinkageFamily.custom(zero, zero, label="no-shrinkage")


def _js_clone_as_custom(dims):
    # Same rule, but routed through the general quadrature path.
    k = dims.shrink_constant
    phi = lambda w: np.full(np.shape(w), k) if np.ndim(w) else k
    dphi = lambda w: np.zeros(np.shape(w)) if np.ndim(w) else 0.0
    return sm.ShrinkageFamily.custom(phi, dphi, label="js-clone")


class TestAxialMatrix:
    def test_eigen_structure(self):
        u = np.array([0.6, 0.8, 0.0])
        m = sm.AxialMatrix(3, 2.0, 0.5, 0.25, u)
        dense = m.to_dense()
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(dense)),
                                   np.sort(m.eigenvalues()), rtol=1e-12)
        assert m.trace() == pytest.approx(np.trace(dense), rel=1e-12)
        assert m.logdet() == pytest.approx(np.linalg.slogdet(dense)[1], rel=1e-10)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            sm.AxialMatrix(3, 1.0, 1.0, 0.0, np.array([1.0, 1.0, 0.0]))

    def test_logdet_requires_positive_definite(self):
        u = np.array([1.0, 0.0, 0.0])
        m = sm.AxialMatrix(3, 1.0, 0.5, -0.7, u)
        assert not m.is_positive_definite
        with pytest.raises(ValueError):
            m.logdet()


class TestGTransform:
    def test_zero_integrand(self):
        assert sm.g_transform(lambda t: 0.0, DIMS, 2.0) == 0.0

    def test_power_integrand_analytic(self):
        # h(t) = c/t has antiderivative -2c t^{-n/2-1}/(n+2) against the
        # kernel, giving g(w) = 2c/((n+2) w).
        c = (DIMS.p - 2.0) ** 2 / (DIMS.n + 2.0)
        for w in (0.3, 1.0, 4.0):
            got = sm.g_transform(lambda t: c / t, DIMS, w)
            want = 2.0 * c / ((DIMS.n + 2.0) * w)
            assert got == pytest.approx(want, rel=1e-8)

    def test_js_g1_closed_form(self):
        k = DIMS.shrink_constant
        for w in (0.5, 1.0, 3.0):
            got = sm.g_transform(lambda t: k / t, DIMS, w)
            assert got == pytest.approx(2.0 * (DIMS.p - 2.0) / ((DIMS.n + 2.0) ** 2 * w),
                                        rel=1e-8)


class TestGFunctions:
    def test_js_values(self):
        gf = sm.g_functions(JS, DIMS)
        assert float(gf.g1(1.0)) == pytest.approx(6.0 / 49.0, rel=1e-14)
        assert float(gf.g3(1.0)) == pytest.approx(21.0 / 49.0, rel=1e-14)
        assert float(gf.g(1.0)) == pytest.approx(18.0 / 49.0, rel=1e-14)

    def test_identities_hold_for_all_families(self):
        w = np.geomspace(0.05, 20.0, 25)
        for fam in (JS, PP):
            gf = sm.g_functions(fam, DIMS)
            phi = np.asarray(fam.phi(w))
            np.testing.assert_allclose(gf.g3(w), np.asarray(gf.g2(w)) + phi * phi / w,
                                       rtol=1e-12)
            np.testing.assert_allclose(gf.g(w), DIMS.p * np.asarray(gf.g1(w)) - gf.g2(w),
                                       rtol=1e-12)

    def test_quadrature_matches_closed_forms(self):
        # General-path kernels for a clone of the constant rule agree with
        # the closed forms to quadrature accuracy.
        clone = _js_clone_as_custom(DIMS)
        gf_q = sm.g_functions(clone, DIMS)
        gf_c = sm.g_functions(JS, DIMS)
        w = np.geomspace(0.1, 10.0, 7)
        np.testing.assert_allclose(gf_q.g1(w), gf_c.g1(w), rtol=1e-8)
        np.testing.assert_allclose(gf_q.g3(w), gf_c.g3(w), rtol=1e-8)
        np.testing.assert_allclose(gf_q.g(w), gf_c.g(w), rtol=1e-8)

    def test_discontinuous_custom_rejected(self):
        step = lambda w: np.where(np.asarray(w) < 1.0, 0.0, 0.3) if np.ndim(w) \
            else (0.0 if w < 1.0 else 0.3)
        zero = lambda w: np.zeros(np.shape(w)) if np.ndim(w) else 0.0
        fam = sm.ShrinkageFamily.custom(step, zero, phi_continuous=False)
        with pytest.raises(ValueError):
            sm.g_functions(fam, DIMS)


class TestUmvueMse:
    def test_js_closed_form(self):
        obs = sm.Observation([1.0, 0, 0, 0, 0], 1.0)  # S=1, W=1
        assert sm.umvue_mse(obs, JS, DIMS) == pytest.approx(1.0 - (3.0 / 7.0) ** 2, rel=1e-14)

    def test_zero_phi_gives_scale_estimate(self):
        obs = sm.Observation([1.0, 2.0, 0, 0, 0.5], 3.0)
        assert sm.umvue_mse(obs, _zero_family(), DIMS) == pytest.approx(
            DIMS.p * obs.s / DIMS.n, rel=1e-12)

    def test_positive_part_branch_value(self):
        # Below the kink: -pS/n + SW + C0 S W^{n/2}; independent scalar
        # arithmetic for the pieces.
        w, s = 0.2, 1.0
        obs = sm.Observation([np.sqrt(w * s), 0, 0, 0, 0], s)
        c0, _, _ = sm.positive_part_branch_constants(DIMS)
        want = -DIMS.p * s / DIMS.n + s * w + c0 * s * w ** (0.5 * DIMS.n)
        assert sm.umvue_mse(obs, PP, DIMS) == pytest.approx(want, rel=1e-12)
        assert c0 == pytest.approx(2.0 * (1.0 - 3.0 / 7.0) * (3.0 / 7.0) ** -2.5, rel=1e-14)

    def test_trace_consistency(self):
        rng = np.random.default_rng(2)
        for fam in (JS, PP, _js_clone_as_custom(DIMS)):
            for _ in range(5):
                obs = sm.Observation(rng.standard_normal(5), float(rng.uniform(0.3, 4.0)))
                mse = sm.umvue_mse(obs, fam, DIMS)
                mat = sm.umvue_mse_matrix(obs, fam, DIMS)
                assert mat.trace() == pytest.approx(mse, rel=1e-10)

    def test_branch_continuity_at_kink(self):
        k = DIMS.shrink_constant
        gf = sm.g_functions(PP, DIMS)
        right = np.nextafter(k, np.inf)
        for fn in (gf.g1, gf.g3, gf.g):
            assert float(fn(k)) == pytest.approx(float(fn(right)), rel=1e-9)

    def test_rejects_zero_w(self):
        obs = sm.Observation(np.zeros(5), 1.0)
        with pytest.raises(ValueError):
            sm.umvue_mse(obs, JS, DIMS)


def test_unbiasedness_smoke():
    # The estimate's Monte Carlo mean tracks the exact risk; the sharp
    # version at 1e5 replications lives in the acceptance suite.
    lam = 5.0
    reps = 40_000
    risk = sm.true_risk(PP, DIMS, lam)
    g = sm.RngStream(22).generator()
    theta = np.sqrt(lam / DIMS.p) * np.ones(DIMS.p)
    x = theta + g.standard_normal((reps, DIMS.p))
    s = g.chisquare(DIMS.n, reps)
    w = np.einsum("ij,ij->i", x, x) / s
    vals = np.asarray(sm.estimate_mse_at(sm.MseEstimatorKind.UMVUE, w, s, PP, DIMS))
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - risk) < 4.0 * se
