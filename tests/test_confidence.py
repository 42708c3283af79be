import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinmse as sm
from _oracles import dense_quad_form, observation_draws

CV = sm.ConfidenceVariant
DIMS = sm.ProblemDims(5, 5)
PP = sm.ShrinkageFamily.positive_part(DIMS)


@pytest.fixture(scope="module")
def consts():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return sm.matrix_constants(PP, DIMS)


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

    @pytest.mark.parametrize("c", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_radius(self, c):
        m = sm.AxialMatrix(3, 1.0, 0.5, 0.2, np.array([1.0, 0, 0]))
        with pytest.raises(ValueError, match="quadratic radius must be positive"):
            sm.ellipsoid_volume(m, c)

    def test_quad_form_rejects_a_vector_of_another_length(self):
        m = sm.AxialMatrix(3, 1.0, 0.5, 0.2, np.array([1.0, 0, 0]))
        with pytest.raises(ValueError, match="length 2, expected 3"):
            sm.quad_form_inv(m, np.ones(2))

    def test_a_volume_beyond_the_largest_double_raises_without_a_warning(self):
        m = sm.AxialMatrix(10, 1e300, 0.2, 0.0, np.eye(10)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="volume, exp\\(3.*\\), overflows"):
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

    # theta must be a finite vector of length p: numpy would broadcast a
    # scalar over every coordinate, and a NaN would read as "not covered".
    @pytest.mark.parametrize("theta", [0.5, [0.5]], ids=["scalar", "length-1"])
    def test_a_scalar_theta_is_refused(self, theta):
        obs = sm.Observation([1.0, 0.4, -0.2, 0.8, 0.3], 1.5)
        with pytest.raises(ValueError, match="vector has length 1, expected 5"):
            sm.build_confidence_set(sm.ConfidenceSpec(CV.C0), obs, PP, DIMS, theta=theta)

    @pytest.mark.parametrize("length", [2, 4, 6])
    def test_a_theta_of_another_length_is_refused(self, consts, length):
        obs = sm.Observation([1.0, 0.4, -0.2, 0.8, 0.3], 1.5)
        res = sm.build_confidence_set(sm.ConfidenceSpec(CV.C1), obs, PP, DIMS, consts)
        with pytest.raises(ValueError, match=f"vector has length {length}, expected 5"):
            res.contains(np.zeros(length))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_nonfinite_theta_is_refused(self, consts, bad):
        obs = sm.Observation([1.0, 0.4, -0.2, 0.8, 0.3], 1.5)
        theta = np.array([0.0, bad, 0.0, 0.0, 0.0])
        for variant in (CV.C0, CV.C2_STAR):
            with pytest.raises(ValueError, match="theta must be finite"):
                sm.build_confidence_set(sm.ConfidenceSpec(variant), obs, PP, DIMS, consts, theta)

    # build_confidence_set and ConfidenceResult.contains check theta on one
    # route: every variant refuses the same theta with the same message.
    @pytest.mark.parametrize("variant", list(CV))
    @pytest.mark.parametrize("theta, match", [
        (np.zeros(4), "vector has length 4, expected 5"),
        (np.zeros(6), "vector has length 6, expected 5"),
        (np.array([0.0, np.nan, 0.0, 0.0, 0.0]), "theta must be finite"),
        (np.array([0.0, 0.0, np.inf, 0.0, 0.0]), "theta must be finite"),
        (np.array([-np.inf, 0.0, 0.0, 0.0, 0.0]), "theta must be finite"),
    ], ids=["short", "long", "nan", "inf", "-inf"])
    def test_a_bad_theta_is_refused_by_both_routes(self, consts, variant, theta, match):
        obs = sm.Observation([0.9, -0.4, 1.3, 0.2, -0.6], 2.0)
        spec = sm.ConfidenceSpec(variant)
        with pytest.raises(ValueError, match=match):
            sm.build_confidence_set(spec, obs, PP, DIMS, consts, theta=theta)
        with pytest.raises(ValueError, match=match):
            sm.build_confidence_set(spec, obs, PP, DIMS, consts).contains(theta)


@pytest.mark.parametrize("variant", [CV.C1, CV.C2_STAR])
def test_batch_geometry_refuses_a_nonpositive_w(consts, variant):
    from steinmse.confidence import _set_geometry

    s, w = np.array([1.0, 2.0]), np.array([0.5, 0.0])
    with pytest.raises(ValueError, match=re.escape(f"variant {variant.value}: W must be positive")):
        _set_geometry(s, w, (sm.ConfidenceSpec(variant),), PP, DIMS, consts)


@pytest.mark.parametrize("variant", [CV.C1, CV.C2, CV.C1_STAR, CV.C2_STAR])
def test_batch_geometry_refuses_a_shape_that_lost_definiteness(consts, variant):
    # A beta2 this large puts every floor below zero, so at small W, where
    # the unbiased factors are negative, no clamp restores definiteness.
    from steinmse.confidence import _set_geometry

    broken = dataclasses.replace(consts, beta=dataclasses.replace(consts.beta, beta2=50.0))
    s, w = np.array([1.0, 1.0]), np.array([1e-3, 4.0])
    with pytest.raises(ValueError, match="lost positive definiteness"):
        _set_geometry(s, w, (sm.ConfidenceSpec(variant),), PP, DIMS, broken)


@pytest.mark.parametrize("variant", [CV.C1, CV.C2, CV.C1_STAR, CV.C2_STAR])
@pytest.mark.parametrize("where", [0, 1], ids=["l_perp", "l_axis"])
def test_batch_geometry_refuses_a_nan_shape_factor(consts, variant, where):
    # A NaN factor, say from a custom phi, would otherwise be scored as "not
    # covered" with a NaN volume.
    from steinmse.confidence import _set_geometry

    s, w = np.array([1.0, 1.0]), np.array([2.0, 4.0])
    unbiased = [np.full(2, 0.1), np.full(2, 0.2)]
    unbiased[where][1] = np.nan
    with pytest.raises(ValueError, match="lost positive definiteness"):
        _set_geometry(s, w, (sm.ConfidenceSpec(variant),), PP, DIMS, consts,
                      unbiased=tuple(unbiased))


def test_default_specs_make_three_log_volumes(consts):
    # C0, C3, C1* and C2* all have C0's volume at 0.95: one array for the
    # four, one each for C1 and C2.
    from steinmse.confidence import _set_geometry

    rng = np.random.default_rng(63)
    s = rng.chisquare(DIMS.n, 64)
    w = rng.noncentral_chisquare(DIMS.p, 2.0, 64) / s
    geos = _set_geometry(s, w, tuple(sm.ConfidenceSpec(v) for v in CV), PP, DIMS, consts)
    assert len({id(g.log_volume) for g in geos}) == 3


@settings(max_examples=120, deadline=None, derandomize=True)
@given(p=st.integers(3, 60), n=st.integers(1, 60),
       fam_name=st.sampled_from(("james-stein", "positive-part")),
       order=st.permutations(list(CV)), count=st.integers(1, len(CV)),
       levels=st.lists(st.sampled_from((0.8, 0.9, 0.95)), min_size=len(CV), max_size=len(CV)),
       with_theta=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_shared_geometry_is_each_specs_own_in_any_order(p, n, fam_name, order, count, levels,
                                                        with_theta, seed):
    # Whatever comes first, a starred set before C0 included, every set is the
    # one its spec gets alone, and C0, C3 and the starred sets have C0's
    # log-volume at their level: p log(S/n) through ``_log_volume``. A shape
    # not certified positive definite at these dims may be refused, so its
    # variants sit out.
    from steinmse.confidence import _log_volume, _set_geometry

    dims = sm.ProblemDims(p, n)
    fam = sm.family_from_name(fam_name, dims)
    consts = sm.matrix_constants(fam, dims)
    kinds = {v: sm.ConfidenceSpec(v).matrix_kind for v in order}
    order = [v for v in order if kinds[v] is None
             or sm.positive_definite_certified(kinds[v], fam, dims, consts)]
    rng = np.random.default_rng(seed)
    theta = np.full(p, rng.uniform(0.0, 2.0))
    x = theta + rng.standard_normal((64, p))
    s = rng.chisquare(n, 64)
    xx = np.einsum("ij,ij->i", x, x)
    rows = (xx, x @ theta, theta @ theta) if with_theta else None
    specs = tuple(sm.ConfidenceSpec(v, level) for v, level in zip(order[:count], levels))
    shared = _set_geometry(s, xx / s, specs, fam, dims, consts, rows)
    assert len(shared) == len(specs)
    for spec, geo in zip(specs, shared):
        single, = _set_geometry(s, xx / s, (spec,), fam, dims, consts, rows)
        for field, got, want in zip(geo._fields, geo, single):
            assert got is None and want is None or np.array_equal(got, want), (spec, field)
        if spec.matrix_kind is None or spec.variant in (CV.C1_STAR, CV.C2_STAR):
            c0 = _log_volume(p * np.log(s / n), sm.f_quantile(spec.level, p, n), p)
            assert np.array_equal(geo.log_volume, c0), spec


@pytest.mark.parametrize("fam_name", ["james-stein", "positive-part"])
@pytest.mark.parametrize("with_theta", [False, True], ids=["no-theta", "theta"])
def test_shared_geometry_equals_single_spec_calls(fam_name, with_theta):
    # Specs that share a shape, level or center share its computation; each
    # set must still be exactly the one its spec gets alone.
    from steinmse.confidence import _set_geometry

    fam = sm.family_from_name(fam_name, DIMS)
    consts = sm.matrix_constants(fam, DIMS)
    rng = np.random.default_rng(61)
    theta = np.full(DIMS.p, 0.7)
    x = theta + rng.standard_normal((500, DIMS.p))
    s = rng.chisquare(DIMS.n, 500)
    xx = np.einsum("ij,ij->i", x, x)
    w = xx / s
    mixed = {CV.C0: 0.95, CV.C1: 0.9, CV.C2: 0.95, CV.C3: 0.8, CV.C1_STAR: 0.95,
             CV.C2_STAR: 0.9}
    rows = (xx, x @ theta, theta @ theta) if with_theta else None
    for levels in (mixed, dict.fromkeys(CV, 0.95)):  # C3 shares C0's volume only at one level
        specs = tuple(sm.ConfidenceSpec(v, levels[v]) for v in CV)
        shared = _set_geometry(s, w, specs, fam, DIMS, consts, rows)
        assert len(shared) == len(specs)
        for spec, geo in zip(specs, shared):
            single, = _set_geometry(s, w, (spec,), fam, DIMS, consts, rows)
            for field, got, want in zip(geo._fields, geo, single):
                same = got is None and want is None or np.array_equal(got, want)
                assert same, (spec.variant, field)


@pytest.mark.parametrize("fam_name", ["james-stein", "positive-part"])
def test_matrix_shape_is_the_matrix_estimate(fam_name):
    # C1 and C1* take the shape of xi1-tr, C2 and C2* that of xi2-tr: the
    # same AxialMatrix, field for field, that estimate_mse_matrix builds.
    rng = np.random.default_rng(62)
    for p, n in [(5, 5), (10, 5), (5, 10)]:
        dims = sm.ProblemDims(p, n)
        fam = sm.family_from_name(fam_name, dims)
        consts = sm.matrix_constants(fam, dims)
        for x, s in observation_draws(rng, p, n, 40):
            obs = sm.Observation(x, s)
            for variant in (CV.C1, CV.C2, CV.C1_STAR, CV.C2_STAR):
                spec = sm.ConfidenceSpec(variant)
                got = sm.build_confidence_set(spec, obs, fam, dims, consts).shape
                want = sm.estimate_mse_matrix(spec.matrix_kind, obs, fam, dims, consts)
                assert (got.dim, got.scale, got.iso, got.axial) == \
                    (want.dim, want.scale, want.iso, want.axial), variant
                assert np.array_equal(got.axis, want.axis)


@pytest.mark.parametrize("fam_name", ["james-stein", "positive-part"])
def test_starred_volume_is_c0s(fam_name):
    # A starred set's threshold makes its volume C0's, and the built set
    # reports C0's volume to the bit, as the coverage curves do, for the
    # same observation and level; through the starred shape's own
    # log-determinant it would miss in the last bits.
    rng = np.random.default_rng(2007)
    for p, n in [(5, 5), (10, 5), (5, 10), (10, 10)]:
        dims = sm.ProblemDims(p, n)
        fam = sm.family_from_name(fam_name, dims)
        consts = sm.matrix_constants(fam, dims)
        for x, s in observation_draws(rng, p, n, 200):
            obs = sm.Observation(x, s)
            c0 = sm.build_confidence_set(sm.ConfidenceSpec(CV.C0), obs, fam, dims, consts)
            for variant in (CV.C1_STAR, CV.C2_STAR):
                got = sm.build_confidence_set(sm.ConfidenceSpec(variant), obs, fam, dims, consts)
                assert got.volume == c0.volume, (p, n, variant)
