"""Property tests for the clamps that turn the unbiased estimates into the
improved ones: every MSE and MSE-matrix kind is a max/min of the unbiased
kernel against floors and caps, so its order relations hold exactly."""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import steinmse as sm
from steinmse.umvue import g_functions

K = sm.MseEstimatorKind
MK = sm.MatrixEstimatorKind
EPS = np.finfo(float).eps

_cases = dict(p=st.integers(3, 60), n=st.integers(1, 60), log_w=st.floats(-6.0, 6.0),
              log_s=st.floats(-3.0, 3.0),
              name=st.sampled_from(["james-stein", "positive-part"]))


@lru_cache(maxsize=None)
def _problem(name: str, p: int, n: int):
    """The rule with its exact shrinkage and matrix constants, once per dims."""
    dims = sm.ProblemDims(p, n)
    fam = sm.family_from_name(name, dims)
    return dims, fam, sm.shrinkage_constants(fam, dims), sm.matrix_constants(fam, dims)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(**_cases)
def test_mse_kinds_keep_their_clamp_order(p, n, log_w, log_s, name):
    dims, fam, sc, _ = _problem(name, p, n)
    w, s = np.array([10.0 ** log_w]), np.array([10.0 ** log_s])
    est = {k: float(sm.estimate_mse_at(k, w, s, fam, dims, sc)[0]) for k in K}
    cap = float(p * s[0] * (1.0 + w[0]) / (n + p + 2.0))
    umvue = est[K.UMVUE]
    assert est[K.TRUNCATED_ZERO] == max(umvue, 0.0)
    assert 0.0 <= est[K.PSI0] <= cap
    assert est[K.PSI1] >= umvue and est[K.PSI2] >= umvue
    assert est[K.PSI2] > 0.0
    if sm.psi1_positive_certified(sc, dims):
        assert est[K.PSI1] > 0.0
    assert est[K.PSI1_TR] == min(est[K.PSI1], cap)
    assert est[K.PSI2_TR] == min(est[K.PSI2], cap)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(**_cases)
def test_matrix_kinds_keep_their_clamp_order(p, n, log_w, log_s, name):
    dims, fam, _, mc = _problem(name, p, n)
    w = np.array([10.0 ** log_w])
    parts = {k: tuple(float(v[0]) for v in sm.matrix_eigen_parts(k, w, fam, dims, mc))
             for k in MK}
    cap = float((1.0 + w[0]) / (n + p + 1.0))  # the l_perp cap of the truncated kinds
    l_perp, l_axis = parts[MK.UMVUE]
    assert parts[MK.XI0_ETA0][0] >= 0.0 and parts[MK.XI0_ETA0][1] >= 0.0
    for kind in (MK.XI1_ETA1, MK.XI2_ETA2):
        assert parts[kind][0] >= l_perp and parts[kind][1] >= l_axis, kind
    # The truncated kinds cap l_perp of their untruncated twins and nothing
    # else; near W = 0 the cap can bind below a floor.
    for kind, twin in ((MK.XI1_TR_ETA1, MK.XI1_ETA1), (MK.XI2_TR_ETA2, MK.XI2_ETA2)):
        assert parts[kind] == (min(parts[twin][0], cap), parts[twin][1]), kind
    for kind in (MK.XI0_ETA0, MK.XI1_TR_ETA1, MK.XI2_TR_ETA2):
        assert parts[kind][0] <= cap, kind
    for kind in MK:
        if sm.positive_definite_certified(kind, fam, dims, mc):
            assert parts[kind][0] > 0.0 and parts[kind][1] > 0.0, kind


@settings(max_examples=400, deadline=None, derandomize=True)
@given(**_cases)
def test_unbiased_matrix_trace_is_the_unbiased_mse(p, n, log_w, log_s, name):
    # tr = S (p (1/n - g1) + g3) and pS(1 - a)/n = pS/n - S (p g1 - g2 - phi^2/W)
    # are the same sum in another order: equal to a few ulps of its terms.
    dims, fam, _, _ = _problem(name, p, n)
    s = 10.0 ** log_s
    obs = sm.Observation(np.sqrt(10.0 ** log_w * s) * np.eye(p)[0], s)
    gf = g_functions(fam, dims)
    terms = s * (p / n + p * abs(float(gf.g1(obs.w))) + float(gf.g3(obs.w)))
    trace = sm.umvue_mse_matrix(obs, fam, dims).trace()
    assert abs(trace - sm.umvue_mse(obs, fam, dims)) <= 8.0 * EPS * terms
