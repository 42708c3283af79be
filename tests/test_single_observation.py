"""The single-observation API reads one memoised kernel and one shared axis.

Every estimate of one observation and family clamps the unbiased kernel at
the same W, (a(W), 1/n - g1(W), g3(W)), and every matrix estimate and set
sits on the same axis u = x/||x||. These tests pin that each estimate is
bit for bit its m = 1 array path, that the kernel is evaluated once per
observation and family, and that nothing of the memo lives on the
observation.
"""

import pickle

import numpy as np
import pytest

import steinmse as sm
from steinmse import umvue
from steinmse.confidence import _set_geometry
from steinmse.umvue import GFunctions, _kernel_at, _unbiased_matrix_parts

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
        for kind in sm.MseEstimatorKind:
            want = sm.estimate_mse_at(kind, w, s, fam, dims, sc)[0]
            assert sm.estimate_mse(kind, obs, fam, dims, sc) == want, (kind, obs.w)
        assert sm.umvue_mse(obs, fam, dims) == \
            sm.estimate_mse_at(sm.MseEstimatorKind.UMVUE, w, s, fam, dims)[0]
        iso, g3 = (v[0] for v in _unbiased_matrix_parts(w, fam, dims))
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


def _counting_g_functions(counts):
    """``g_functions`` whose g1 counts its calls per family."""
    real = umvue.g_functions

    def wrapped(fam, dims):
        gf = real(fam, dims)

        def g1(w):
            counts[fam.label] = counts.get(fam.label, 0) + 1
            return gf.g1(w)

        return GFunctions(g1, gf.g2, gf.g3, gf.g)

    return wrapped


def test_one_observation_evaluates_the_kernel_once_per_family(monkeypatch):
    dims = sm.ProblemDims(5, 10)
    fams = [sm.family_from_name(name, dims) for name in FAMILIES]
    consts = [(sm.shrinkage_constants(f, dims), sm.matrix_constants(f, dims)) for f in fams]
    counts = {}
    monkeypatch.setattr(umvue, "g_functions", _counting_g_functions(counts))
    obs = sm.Observation([0.4, -1.1, 0.3, 0.9, 0.2], 2.5)
    for fam, (sc, mc) in zip(fams, consts):
        for _ in range(2):  # a second pass reads the memo
            _estimate_everything(obs, fam, dims, sc, mc)
    assert counts == {"james-stein": 1, "positive-part": 1}


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
