import warnings

import numpy as np
import pytest

import steinmse as sm
from _oracles import dense_quad_form

CV = sm.ConfidenceVariant
DIMS = sm.ProblemDims(5, 5)
PP = sm.ShrinkageFamily.positive_part(DIMS)


@pytest.fixture(scope="module")
def consts():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return sm.matrix_constants(PP, DIMS, j_max=20)


class TestQuadFormInv:
    def test_isotropic(self):
        m = sm.AxialMatrix(4, 2.0, 0.5, 0.0, np.array([1.0, 0, 0, 0]))
        d = np.array([1.0, 2.0, 0.0, -1.0])
        assert sm.quad_form_inv(m, d) == pytest.approx(float(d @ d) / (2.0 * 0.5), rel=1e-14)

    def test_orthogonal_direction_ignores_axial(self):
        u = np.array([1.0, 0, 0, 0])
        m = sm.AxialMatrix(4, 1.5, 0.7, 2.0, u)
        d = np.array([0.0, 3.0, -1.0, 0.5])
        assert sm.quad_form_inv(m, d) == pytest.approx(float(d @ d) / (1.5 * 0.7), rel=1e-13)

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(62)
        worst = 0.0
        for _ in range(200):
            u = rng.standard_normal(5)
            u /= np.linalg.norm(u)
            m = sm.AxialMatrix(5, float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.05, 2.0)),
                               float(rng.uniform(-0.04, 3.0)), u)
            d = rng.standard_normal(5)
            want = dense_quad_form(m.to_dense(), d)
            worst = max(worst, abs(sm.quad_form_inv(m, d) - want) / abs(want))
        assert worst < 1e-10

    def test_positive_for_nonzero_vectors(self):
        rng = np.random.default_rng(63)
        u = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        m = sm.AxialMatrix(5, 1.0, 0.3, 0.9, u)
        for _ in range(50):
            d = rng.standard_normal(5)
            assert sm.quad_form_inv(m, d) > 0

    def test_error_identifies_offending_eigenvalue(self):
        u = np.array([1.0, 0, 0, 0, 0])
        bad_axis = sm.AxialMatrix(5, 1.0, 0.4, -0.5, u)
        with pytest.raises(ValueError, match="axis eigenvalue"):
            sm.quad_form_inv(bad_axis, np.ones(5))
        bad_iso = sm.AxialMatrix(5, 1.0, -0.1, 0.5, u)
        with pytest.raises(ValueError, match="isotropic eigenvalue"):
            sm.quad_form_inv(bad_iso, np.ones(5))


class TestVolume:
    def test_two_dimensional_disc(self):
        # M = I_2 and c = 1 bound the disc of squared radius c p = 2.
        m = sm.AxialMatrix(2, 1.0, 1.0, 0.0, np.array([1.0, 0.0]))
        assert sm.ellipsoid_volume(m, 1.0) == pytest.approx(2.0 * np.pi, rel=1e-12)

    def test_scaling_homogeneity(self):
        u = np.array([0.6, 0.8, 0.0, 0.0, 0.0])
        m = sm.AxialMatrix(5, 1.3, 0.4, 0.9, u)
        m_scaled = sm.AxialMatrix(5, 1.3 * 2.7, 0.4, 0.9, u)
        ratio = sm.ellipsoid_volume(m_scaled, 0.8) / sm.ellipsoid_volume(m, 0.8)
        assert ratio == pytest.approx(2.7 ** 2.5, rel=1e-12)

    def test_rejects_indefinite_shape(self):
        m = sm.AxialMatrix(3, 1.0, 0.5, -0.8, np.array([1.0, 0, 0]))
        with pytest.raises(ValueError):
            sm.ellipsoid_volume(m, 1.0)


class TestBuildConfidenceSet:
    def test_center_always_covered(self, consts):
        obs = sm.Observation([1.0, 0.4, -0.2, 0.8, 0.3], 1.5)
        for variant in CV:
            spec = sm.ConfidenceSpec(variant)
            res = sm.build_confidence_set(spec, obs, PP, DIMS, consts,
                                          theta=None)
            assert res.contains(res.center)

    def test_boundary_point_is_covered(self):
        # Closed-set convention: theta exactly on the C0 boundary is in.
        obs = sm.Observation([2.0, 0, 0, 0, 0], 1.0)
        c = sm.f_quantile(0.95, 5, 5)
        radius2 = c * DIMS.p * obs.s / DIMS.n
        theta = obs.x + np.array([np.sqrt(radius2), 0, 0, 0, 0])
        res = sm.build_confidence_set(sm.ConfidenceSpec(CV.C0), obs, PP, DIMS, theta=theta)
        assert res.contains_truth

    def test_star_volumes_equal_baseline(self, consts):
        rng = np.random.default_rng(64)
        for _ in range(25):
            obs = sm.Observation(rng.standard_normal(5), float(rng.uniform(0.3, 3.0)))
            v0 = sm.build_confidence_set(sm.ConfidenceSpec(CV.C0), obs, PP, DIMS).volume
            for variant in (CV.C1_STAR, CV.C2_STAR):
                v = sm.build_confidence_set(sm.ConfidenceSpec(variant), obs, PP, DIMS,
                                            consts).volume
                assert abs(v - v0) <= 1e-12 * v0

    def test_rotation_invariance(self, consts):
        rng = np.random.default_rng(65)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        x = rng.standard_normal(5)
        theta = rng.standard_normal(5)
        s = 1.7
        for variant in (CV.C0, CV.C1, CV.C3, CV.C2_STAR):
            spec = sm.ConfidenceSpec(variant)
            a = sm.build_confidence_set(spec, sm.Observation(x, s), PP, DIMS, consts, theta)
            b = sm.build_confidence_set(spec, sm.Observation(q @ x, s), PP, DIMS, consts,
                                        q @ theta)
            assert a.volume == pytest.approx(b.volume, rel=1e-10)
            assert a.contains_truth == b.contains_truth
            assert a.quadratic_radius == pytest.approx(b.quadratic_radius, rel=1e-10)

    def test_scale_invariance_of_membership(self, consts):
        # (x, S, theta) -> (t x, t^2 S, t theta) leaves W and the Q
        # statistics unchanged.
        rng = np.random.default_rng(66)
        x = rng.standard_normal(5)
        theta = 0.4 * rng.standard_normal(5)
        s, t = 2.2, 3.0
        for variant in (CV.C1, CV.C2, CV.C1_STAR):
            spec = sm.ConfidenceSpec(variant)
            a = sm.build_confidence_set(spec, sm.Observation(x, s), PP, DIMS, consts, theta)
            b = sm.build_confidence_set(spec, sm.Observation(t * x, t * t * s), PP, DIMS,
                                        consts, t * theta)
            assert a.contains_truth == b.contains_truth

    def test_matrix_variants_need_constants(self):
        obs = sm.Observation([1.0, 0, 0, 0, 0], 1.0)
        with pytest.raises(ValueError):
            sm.build_confidence_set(sm.ConfidenceSpec(CV.C1), obs, PP, DIMS, None)

    def test_zero_observation(self, consts):
        # W = 0: C0 and C3 pin the center at the origin with axis e1, and
        # only the James-Stein C3 warns; matrix shapes need W > 0.
        obs = sm.Observation(np.zeros(5), 1.0)
        js = sm.ShrinkageFamily.james_stein(DIMS)
        for fam in (js, PP):
            for variant in (CV.C0, CV.C3):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    res = sm.build_confidence_set(sm.ConfidenceSpec(variant), obs, fam, DIMS,
                                                  theta=np.zeros(5))
                assert np.array_equal(res.center, np.zeros(5))
                assert np.array_equal(res.shape.axis, np.eye(5)[0])
                assert res.contains_truth and np.isfinite(res.volume)
                shrunk = [w for w in caught if issubclass(w.category, sm.ShrunkToOriginWarning)]
                assert len(shrunk) == (variant is CV.C3 and fam is js)
            for variant in (CV.C1, CV.C2, CV.C1_STAR, CV.C2_STAR):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", sm.ShrunkToOriginWarning)
                    with pytest.raises(ValueError):
                        sm.build_confidence_set(sm.ConfidenceSpec(variant), obs, fam, DIMS,
                                                consts)

    def test_variant_binding_enforced(self):
        spec = sm.ConfidenceSpec(CV.C2)
        assert spec.matrix_kind is sm.MatrixEstimatorKind.XI2_TR_ETA2

    def test_level_validation(self):
        with pytest.raises(ValueError):
            sm.ConfidenceSpec(CV.C0, level=1.0)
