"""The single-observation API reads one memoised kernel and one shared axis.

Every estimate of one observation and family clamps the unbiased kernel at
the same W, (a(W), 1/n - g1(W), g3(W)), and every matrix estimate and set
sits on the same axis u = x/||x||. These tests pin that each estimate is
bit for bit its row of an array path, that the kernel is evaluated once
per observation and family, that a value beyond a double is refused by
name, and that nothing of the memo lives on the observation.
"""

import pickle
import sys
import warnings

import numpy as np
import pytest

import steinmse as sm
from steinmse import shrinkage, umvue
from steinmse.confidence import _set_geometry
from steinmse.umvue import _kernel_at, _kernel_terms, _matrix_parts_from, a_of_w

MK = sm.MatrixEstimatorKind
TABLE_DIMS = [(5, 5), (10, 5), (5, 10), (10, 10)]
FAMILIES = ["james-stein", "positive-part"]


def _observations(rng, dims):
    """Observations with W below, at and above the positive-part kink."""
    k = dims.shrink_constant
    out = []
    for w in (0.25 * k, 0.9 * k, k, 1.1 * k, 4.0 * k, 50.0):
        x = rng.standard_normal(dims.p)
        out.append(sm.Observation(x, float(x @ x) / w))
    return out


def _estimate_everything(obs, fam, dims, sc, mc):
    """Every single-observation call the estimate-stream benchmark makes."""
    return (sm.apply_estimator(obs, fam, dims),
            [sm.estimate_mse(k, obs, fam, dims, sc) for k in sm.MseEstimatorKind],
            sm.umvue_mse(obs, fam, dims), sm.umvue_mse_matrix(obs, fam, dims),
            [sm.estimate_mse_matrix(k, obs, fam, dims, mc) for k in MK],
            [sm.build_confidence_set(sm.ConfidenceSpec(v), obs, fam, dims, mc)
             for v in sm.ConfidenceVariant])


@pytest.mark.parametrize("fam_name", FAMILIES)
@pytest.mark.parametrize("p,n", TABLE_DIMS)
def test_every_estimate_is_its_m1_array_path_bit_for_bit(p, n, fam_name):
    dims = sm.ProblemDims(p, n)
    fam = sm.family_from_name(fam_name, dims)
    sc, mc = sm.shrinkage_constants(fam, dims), sm.matrix_constants(fam, dims)
    for obs in _observations(np.random.default_rng(p * 100 + n), dims):
        w, s = np.array([obs.w]), np.array([obs.s])
        point = sm.shrink_factors(fam, w)[0] * obs.x
        assert np.array_equal(sm.apply_estimator(obs, fam, dims), point), obs.w
        for kind in sm.MseEstimatorKind:
            want = sm.estimate_mse_at(kind, w, s, fam, dims, sc)[0]
            assert sm.estimate_mse(kind, obs, fam, dims, sc) == want, (kind, obs.w)
        assert sm.umvue_mse(obs, fam, dims) == \
            sm.estimate_mse_at(sm.MseEstimatorKind.UMVUE, w, s, fam, dims)[0]
        iso, g3 = (v[0] for v in _matrix_parts_from(*_kernel_terms(fam, dims, w), w, dims))
        for kind in MK:
            l_perp, l_axis = (v[0] for v in sm.matrix_eigen_parts(kind, w, fam, dims, mc))
            unclamped = l_perp == iso and l_axis == iso + g3
            for m in ([sm.umvue_mse_matrix(obs, fam, dims)] if kind is MK.UMVUE else []) + \
                    [sm.estimate_mse_matrix(kind, obs, fam, dims, mc)]:
                assert (m.scale, m.iso) == (obs.s, l_perp), (kind, obs.w)
                assert m.axial == (g3 if unclamped else l_axis - l_perp), (kind, obs.w)
        for variant in sm.ConfidenceVariant:
            spec = sm.ConfidenceSpec(variant)
            got = sm.build_confidence_set(spec, obs, fam, dims, mc)
            geo, = _set_geometry(s, w, (spec,), fam, dims, mc)
            assert got.quadratic_radius == float(np.ravel(geo.radius)[0]), variant
            assert got.shape.iso == geo.l_perp[0], variant
            if spec.matrix_kind is not None:
                want = sm.estimate_mse_matrix(spec.matrix_kind, obs, fam, dims, mc)
                assert (got.shape.iso, got.shape.axial) == (want.iso, want.axial), variant


@pytest.mark.parametrize("p,n", TABLE_DIMS)
def test_the_memoised_kernel_is_its_block_row_below_and_above_the_kink(p, n):
    # Below the positive-part kink g1 and g2 take a power of W. The memo
    # evaluates it on a one-row block, so each W gets the array loop's
    # bits, not those of a scalar power.
    dims = sm.ProblemDims(p, n)
    fam = sm.ShrinkageFamily.positive_part(dims)
    w = np.random.default_rng(0).uniform(0.0, 1.2 * dims.shrink_constant, 2000)
    block = (a_of_w(fam, dims, w), *_matrix_parts_from(*_kernel_terms(fam, dims, w), w, dims))
    differ = [i for i, wi in enumerate(w)
              if _kernel_at(fam, dims, float(wi)) != tuple(float(v[i]) for v in block)]
    assert differ == []


def test_an_overflowing_umvue_mse_is_refused_by_name():
    # James-Stein at (5, 5) with W = 8.2e-134: pS(1 - a(W))/n is -inf. The
    # unbiased estimate is refused; the clamps with a finite value keep it.
    dims = sm.ProblemDims(5, 5)
    fam = sm.ShrinkageFamily.james_stein(dims)
    obs = sm.Observation(np.full(5, 7e71), 3e277)
    sc = sm.shrinkage_constants(fam, dims)
    for call in (lambda: sm.umvue_mse(obs, fam, dims),
                 lambda: sm.estimate_mse(sm.MseEstimatorKind.UMVUE, obs, fam, dims)):
        with pytest.raises(ValueError, match="umvue MSE estimate overflows"):
            call()
    assert sm.estimate_mse(sm.MseEstimatorKind.TRUNCATED_ZERO, obs, fam, dims) == 0.0
    assert sm.estimate_mse(sm.MseEstimatorKind.PSI0, obs, fam, dims) == 0.0
    for kind in ("psi1", "psi2", "psi1-tr", "psi2-tr"):
        assert 0.0 < sm.estimate_mse(sm.MseEstimatorKind(kind), obs, fam, dims, sc) < np.inf


def test_a_kernel_that_overflows_at_a_subnormal_w_is_refused_by_name():
    # James-Stein at (40, 2) with W = 4.85e-321: c/W overflows, and every
    # estimate was nan after a raw overflow warning (an error under pytest).
    dims = sm.ProblemDims(40, 2)
    obs = sm.Observation(np.full(40, 4.8e-103), 1.9e117)
    assert 0.0 < obs.w < 1e-320
    js, pp = sm.ShrinkageFamily.james_stein(dims), sm.ShrinkageFamily.positive_part(dims)
    mc = sm.matrix_constants(js, dims)
    calls = [lambda: sm.umvue_mse(obs, js, dims), lambda: sm.umvue_mse_matrix(obs, js, dims)]
    calls += [lambda k=k: sm.estimate_mse(k, obs, js, dims) for k in
              (sm.MseEstimatorKind.UMVUE, sm.MseEstimatorKind.PSI0)]
    calls += [lambda k=k: sm.estimate_mse_matrix(k, obs, js, dims, mc) for k in MK]
    for call in calls:
        with pytest.raises(ValueError, match=r"kernel at W = 4\.85e-321 is not finite"):
            call()
    # The positive-part rule is W itself below the kink: finite, not refused.
    sc, mc = sm.shrinkage_constants(pp, dims), sm.matrix_constants(pp, dims)
    values = [sm.estimate_mse(k, obs, pp, dims, sc) for k in sm.MseEstimatorKind]
    matrices = [sm.estimate_mse_matrix(k, obs, pp, dims, mc) for k in MK]
    assert np.isfinite(values).all()
    assert all(np.isfinite([m.iso, m.axial]).all() for m in matrices)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_james_stein_factor_that_overflows_at_a_subnormal_w_is_refused_by_name():
    # James-Stein at (40, 2) with W = 4.85e-321: c/W overflows, and the point
    # estimate was -inf after a raw "overflow encountered in divide" warning.
    dims = sm.ProblemDims(40, 2)
    obs = sm.Observation(np.full(40, 4.8e-103), 1.9e117)
    with pytest.raises(ValueError, match=r"factor 1 - phi\(W\)/W at W = 4\.85172e-321 is not"):
        sm.apply_estimator(obs, sm.ShrinkageFamily.james_stein(dims), dims)
    # The positive-part factor is 0 below the kink: a finite estimate.
    pp = sm.ShrinkageFamily.positive_part(dims)
    assert not sm.apply_estimator(obs, pp, dims).any()


def test_an_overflowing_umvue_mse_matrix_is_refused_by_name():
    # James-Stein at (5, 5) with W = 8.2e-134: S(1/n - g1) is -inf and
    # S(1/n - g1 + g3) is +inf. The unbiased matrix is refused by name, and
    # so is a clamp whose axis eigenvalue still overflows.
    dims = sm.ProblemDims(5, 5)
    fam = sm.ShrinkageFamily.james_stein(dims)
    obs = sm.Observation(np.full(5, 7e71), 3e277)
    for call in (lambda: sm.umvue_mse_matrix(obs, fam, dims),
                 lambda: sm.estimate_mse_matrix(MK.UMVUE, obs, fam, dims)):
        with pytest.raises(ValueError, match=r"umvue MSE matrix overflows"):
            call()
    mc = sm.matrix_constants(fam, dims)
    with pytest.raises(ValueError, match=r"xi2-tr MSE matrix overflows"):
        sm.estimate_mse_matrix(MK.XI2_TR_ETA2, obs, fam, dims, mc)


def _count_calls(names, fn):
    """Run fn() and count, by name, the calls of the ``umvue`` and
    ``shrinkage`` functions in ``names`` (closures included), however they
    are reached: through ``GFunctions``, another kernel or a bound partial."""
    files = {umvue.__file__, shrinkage.__file__}
    counts = {}

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_name in names and code.co_filename in files:
            counts[code.co_name] = counts.get(code.co_name, 0) + 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def test_one_observation_evaluates_the_kernel_once_per_family():
    # Every g1 and g2 evaluation is counted, including those a kernel makes
    # through another (g3 reads g2), over two passes of every estimate.
    dims = sm.ProblemDims(5, 10)
    obs = sm.Observation([0.4, -1.1, 0.3, 0.9, 0.2], 2.5)
    for name in FAMILIES:
        fam = sm.family_from_name(name, dims)
        sc, mc = sm.shrinkage_constants(fam, dims), sm.matrix_constants(fam, dims)

        def twice():
            for _ in range(2):  # a second pass reads the memo
                _estimate_everything(obs, fam, dims, sc, mc)

        assert _count_calls({"g1", "g2"}, twice) == {"g1": 1, "g2": 1}, name
        w = 1.7 * obs.w  # a fresh W: one memo miss reads phi once too
        got = _count_calls({"g1", "g2", "phi"}, lambda: _kernel_at(fam, dims, w))
        assert got == {"g1": 1, "g2": 1, "phi": 1}, name


def test_a_custom_family_makes_two_quadratures_per_observation():
    # A custom family's g1 and g2 are one tail quadrature each, so one
    # observation and family costs two ``g_transform`` calls, whatever it asks.
    dims = sm.ProblemDims(5, 5)
    rng = np.random.default_rng(5)
    observations = [sm.Observation(rng.standard_normal(5), s) for s in (0.7, 3.0)]
    for name in FAMILIES:
        built_in = sm.family_from_name(name, dims)
        fam = sm.ShrinkageFamily.custom(built_in.phi, built_in.phi_prime, label="clone")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the scan-boundary warning
            sc, mc = sm.shrinkage_constants(fam, dims), sm.matrix_constants(fam, dims)
        for obs in observations:
            got = _count_calls({"g_transform"},
                               lambda: _estimate_everything(obs, fam, dims, sc, mc))
            assert got == {"g_transform": 2}, (name, obs.w)


def test_two_families_on_one_observation_get_their_own_values():
    dims = sm.ProblemDims(5, 5)
    obs = sm.Observation([0.3, 0.1, -0.2, 0.05, 0.1], 1.5)  # below the kink
    js, pp = (sm.family_from_name(name, dims) for name in FAMILIES)
    js_twin = sm.ShrinkageFamily.james_stein(dims)
    first = [sm.umvue_mse(obs, f, dims) for f in (js, pp, js_twin)]
    fresh = [sm.umvue_mse(sm.Observation(obs.x, obs.s), f, dims) for f in (js, pp, js_twin)]
    assert first == fresh
    assert first[0] != first[1] and first[0] == first[2]
    a_js, a_pp = (_kernel_at(f, dims, obs.w)[0] for f in (js, pp))
    assert a_js != a_pp


def test_the_memo_is_bounded_and_fills_only_in_an_estimate():
    assert _kernel_at.cache_info().maxsize <= 64
    dims = sm.ProblemDims(5, 5)
    fam = sm.family_from_name("positive-part", dims)
    before = _kernel_at.cache_info()
    obs = sm.Observation([1.0, 2.0, -0.5, 0.3, 0.7], 3.0)
    assert _kernel_at.cache_info() == before
    sm.umvue_mse(obs, fam, dims)
    assert _kernel_at.cache_info().misses == before.misses + 1
    sm.estimate_mse(sm.MseEstimatorKind.PSI0, obs, fam, dims)
    assert _kernel_at.cache_info().hits == before.hits + 1


def test_observation_pickles_and_compares_as_before_after_estimates():
    dims = sm.ProblemDims(5, 5)
    fam = sm.ShrinkageFamily.positive_part(dims)
    obs = sm.Observation([0.9, -0.4, 1.3, 0.2, -0.6], 2.0)
    bare = pickle.loads(pickle.dumps(sm.Observation(obs.x, obs.s)))
    mc = sm.matrix_constants(fam, dims)
    _estimate_everything(obs, fam, dims, sm.shrinkage_constants(fam, dims), mc)
    assert set(vars(obs)) <= {"x", "s", "w", "axis"}  # nothing of the memo
    back = pickle.loads(pickle.dumps(obs))
    assert obs == obs and back == back
    assert np.array_equal(back.x, bare.x) and back.s == bare.s and back.w == bare.w
    assert np.array_equal(back.axis, obs.axis)
    assert sm.umvue_mse(back, fam, dims) == sm.umvue_mse(obs, fam, dims)


def test_every_matrix_of_one_observation_shares_its_read_only_axis():
    dims = sm.ProblemDims(5, 5)
    fam = sm.ShrinkageFamily.james_stein(dims)
    obs = sm.Observation([0.9, -0.4, 1.3, 0.2, -0.6], 2.0)
    _, _, _, umvue_m, matrices, sets = _estimate_everything(
        obs, fam, dims, sm.shrinkage_constants(fam, dims), sm.matrix_constants(fam, dims))
    assert not obs.axis.flags.writeable
    for m in [umvue_m, *matrices, *(cs.shape for cs in sets)]:
        assert m.axis is obs.axis
    # A writable axis handed to AxialMatrix is still copied.
    u = np.array([0.6, 0.8, 0.0])
    m = sm.AxialMatrix(3, 1.0, 1.0, 0.5, u)
    u[0] = 5.0
    assert m.axis[0] == 0.6 and not m.axis.flags.writeable


def test_axis_of_an_overflowing_squared_norm_and_of_zero():
    # ||x||^2 = 1e310 overflows, W = 1e10 does not: the axis is still x's.
    obs = sm.Observation([1e155, 1.0, 1.0], 1e300)
    dims = sm.ProblemDims(3, 4)
    m = sm.umvue_mse_matrix(obs, sm.ShrinkageFamily.james_stein(dims), dims)
    assert np.array_equal(m.axis, [1.0, 1e-155, 1e-155])
    assert np.array_equal(sm.Observation(np.zeros(4), 1.0).axis, np.eye(4)[0])


def test_observations_and_axial_matrices_compare_by_identity():
    # Value equality over their array fields would be ambiguous (it raised
    # ValueError, and hash raised TypeError), so equality is identity and
    # both are hashable.
    a, b = sm.Observation([1.0, 2, 3], 1.0), sm.Observation([1.0, 2, 3], 1.0)
    assert a == a and a != b and len({a, b, a}) == 2 and hash(a) == hash(a)
    u = np.array([0.6, 0.8, 0.0])
    m, m2 = sm.AxialMatrix(3, 1.0, 1.0, 0.5, u), sm.AxialMatrix(3, 1.0, 1.0, 0.5, u)
    assert m == m and m != m2 and len({m, m2, m}) == 2


def _on_c0_boundary(obs, fam, dims, level):
    """A theta on C0's boundary: x moved along e1 until the quadratic form
    over p equals the threshold, or the closest such double found."""
    c0 = sm.build_confidence_set(sm.ConfidenceSpec(sm.ConfidenceVariant.C0, level), obs,
                                 fam, dims)
    theta = obs.x.copy()
    theta[0] += np.sqrt(c0.quadratic_radius * dims.p * obs.s / dims.n)
    for _ in range(64):  # a few ulps either way
        q = sm.quad_form_inv(c0.shape, c0.center - theta) / dims.p
        if q == c0.quadratic_radius:
            break
        theta[0] = np.nextafter(theta[0], obs.x[0] if q > c0.quadratic_radius else np.inf)
    return theta


@pytest.mark.parametrize("fam_name", FAMILIES)
@pytest.mark.parametrize("p,n", TABLE_DIMS)
def test_each_set_is_its_row_of_a_block_and_covers_as_it_contains(p, n, fam_name):
    # build_confidence_set is the m = 1 case of _set_geometry: its threshold
    # and shape factors are, bit for bit, those of its row inside a 64-row
    # block, which computes its own unbiased factors, and contains_truth is
    # ConfidenceResult.contains of the set.
    dims = sm.ProblemDims(p, n)
    fam = sm.family_from_name(fam_name, dims)
    mc = sm.matrix_constants(fam, dims)
    rng = np.random.default_rng(10 * p + n)
    observations = _observations(rng, dims)
    while len(observations) < 64:
        x = rng.standard_normal(p) * rng.uniform(0.2, 3.0)
        observations.append(sm.Observation(x, rng.chisquare(n)))
    s = np.array([obs.s for obs in observations])
    w = np.array([obs.w for obs in observations])
    iso, g3 = _matrix_parts_from(*_kernel_terms(fam, dims, w), w, dims)
    for level in (0.90, 0.95):
        boundary = [_on_c0_boundary(obs, fam, dims, level) for obs in observations[:8]]
        for variant in sm.ConfidenceVariant:
            spec = sm.ConfidenceSpec(variant, level)
            geo, = _set_geometry(s, w, (spec,), fam, dims, mc)
            radius = np.broadcast_to(geo.radius, w.shape)
            for i, obs in enumerate(observations):
                thetas = [rng.standard_normal(p) + obs.x] + boundary[i:i + 1]
                for theta in thetas:
                    got = sm.build_confidence_set(spec, obs, fam, dims, mc, theta=theta)
                    assert got.quadratic_radius == radius[i], (variant, level, i)
                    l_perp, l_axis = geo.l_perp[i], geo.l_axis[i]
                    unclamped = spec.matrix_kind is None or (l_perp == iso[i] and
                                                             l_axis == iso[i] + g3[i])
                    assert got.shape.iso == l_perp, (variant, level, i)
                    assert got.shape.axial == ((g3[i] if spec.matrix_kind else 0.0) if unclamped
                                               else l_axis - l_perp), (variant, level, i)
                    assert got.contains_truth is got.contains(theta), (variant, level, i)


def test_a_theta_on_c0s_boundary_is_inside_it():
    dims = sm.ProblemDims(5, 5)
    fam = sm.ShrinkageFamily.james_stein(dims)
    obs = sm.Observation([0.9, -0.4, 1.3, 0.2, -0.6], 2.0)
    theta = _on_c0_boundary(obs, fam, dims, 0.95)
    c0 = sm.build_confidence_set(sm.ConfidenceSpec(sm.ConfidenceVariant.C0), obs, fam, dims,
                                 theta=theta)
    assert sm.quad_form_inv(c0.shape, c0.center - theta) / dims.p == c0.quadratic_radius
    assert c0.contains_truth is True and c0.contains(theta) is True
    theta[0] = np.nextafter(theta[0], np.inf)
    assert c0.contains(theta) is False
