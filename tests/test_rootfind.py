"""The package's one root solver, and the constant roots it finds."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinmse as sm
from _oracles import quadratic_root
from steinmse._rootfind import bracketed_root
from steinmse.mse_improved import alpha_pn
from steinmse.umvue import a_of_w, g_functions

EPS = sys.float_info.epsilon

# Odd, increasing shapes: h(x - r) has the sign of x - r at every double x,
# because x - r is exact near r and nonzero elsewhere.
SHAPES = {
    "linear": lambda d: d,
    "cubic": lambda d: d * d * d + d,
    "arctan": math.atan,
    "sinh": lambda d: math.sinh(max(min(d, 700.0), -700.0)),
    "sign-sqrt": lambda d: math.copysign(math.sqrt(abs(d)), d),
}


def _monotone(root, slope, shape):
    """f(x) = slope * h(x - root) and the list of the points it was called at."""
    calls = []

    def f(x):
        calls.append(x)
        return slope * SHAPES[shape](x - root)

    return f, calls


roots = st.floats(1e-3, 1e6)
slopes = st.builds(lambda m, s: s * m, st.floats(1e-3, 1e3), st.sampled_from([-1.0, 1.0]))
shapes = st.sampled_from(sorted(SHAPES))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(root=roots, slope=slopes, shape=shapes, lo_frac=st.floats(0.0, 0.999),
       log2_width=st.floats(-20.0, 20.0))
def test_finds_a_bracketed_root_to_a_few_ulps(root, slope, shape, lo_frac, log2_width):
    # hi below the root needs doubling; hi above it does not.
    lo = root * lo_frac
    hi = lo + (root - lo) * 2.0 ** log2_width
    f, calls = _monotone(root, slope, shape)
    x = bracketed_root(f, lo, hi)
    solver_calls = list(calls)
    assert isinstance(x, float)
    d = 4.0 * EPS * abs(x)
    assert f(x) == 0.0 or (f(x - d) > 0.0) != (f(x + d) > 0.0)
    assert abs(x - root) <= 4.0 * EPS * abs(x)
    # The calls start with lo, hi, 2 hi, ... up to the first end at or past
    # the root, and every later one lies inside the last doubled bracket.
    ends = [lo] + [hi * 2.0 ** i for i in range(61)]
    k = next(i for i, e in enumerate(ends) if e >= root)
    assert solver_calls[:k + 1] == ends[:k + 1]
    assert all(ends[k - 1] < v < ends[k] for v in solver_calls[k + 1:])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(root_scale=st.floats(1.0, 8.0), slope=slopes, shape=shapes,
       hi=st.floats(1e-6, 1e3), lo_frac=st.floats(0.0, 0.999))
def test_no_sign_change_in_60_doublings_is_none(root_scale, slope, shape, hi, lo_frac):
    root = hi * 2.0 ** 61 * root_scale
    f, calls = _monotone(root, slope, shape)
    assert bracketed_root(f, hi * lo_frac, hi) is None
    assert calls == [hi * lo_frac] + [hi * 2.0 ** i for i in range(61)]


def test_a_function_of_one_sign_is_none():
    assert bracketed_root(lambda x: 1.0 + x * x, 0.0, 1.0) is None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(hi=st.floats(1e-3, 1e3), slope=slopes, shape=shapes, lo_frac=st.floats(0.0, 0.999),
       doublings=st.integers(0, 20))
def test_an_exact_zero_at_an_end_is_returned(hi, slope, shape, lo_frac, doublings):
    lo = hi * lo_frac
    f, calls = _monotone(lo, slope, shape)
    assert bracketed_root(f, lo, hi) == lo and calls == [lo]
    end = hi * 2.0 ** doublings
    f, calls = _monotone(end, slope, shape)
    assert bracketed_root(f, lo, hi) == end and calls[-1] == end


TABLE_DIMS = [sm.ProblemDims(5, 5), sm.ProblemDims(10, 5), sm.ProblemDims(5, 10),
              sm.ProblemDims(10, 10)]


@pytest.mark.parametrize("dims", TABLE_DIMS, ids=lambda d: f"{d.p}x{d.n}")
@pytest.mark.parametrize("name", ["js", "js-plus"])
def test_table_roots_match_their_quadratics(dims, name):
    # Above the kink c, both rules have g1 = 2(p-2)/((n+2)^2 W) and
    # a(W) = (n/p) c^2/W, so w_xi solves W(1+W) = 2(p-2)(n+p+2)/((n+2)^2 beta2)
    # and w_pn solves W(1+W) = c^2 (n+p+2)/alpha.
    p, n, c = dims.p, dims.n, dims.shrink_constant
    fam = sm.family_from_name(name, dims)
    sc = sm.shrinkage_constants(fam, dims)
    mc = sm.matrix_constants(fam, dims)
    beta2 = mc.beta.beta2
    w_xi = quadratic_root(2.0 * (p - 2.0) * (n + p + 2.0) / ((n + 2.0) ** 2 * beta2))
    w_pn = quadratic_root(c * c * (n + p + 2.0) / sc.alpha)
    assert w_xi > c and w_pn > c
    assert type(sc.w_pn) is float and type(mc.w_xi) is float
    assert mc.w_xi == pytest.approx(w_xi, rel=1e-14, abs=0.0)
    assert sc.w_pn == pytest.approx(w_pn, rel=1e-14, abs=0.0)

    # Every root the solver found changes the sign of its equation within
    # 4 eps |root| of itself.
    gf = g_functions(fam, dims)
    scale = beta2 / (n + p + 2.0)
    equations = {"w_xi": (mc.w_xi, lambda w: (1.0 + w) * scale / gf.g1(w) - 1.0)}
    if name == "js-plus":
        target = p * (n + p + 2.0) / (n * alpha_pn(fam, dims))
        equations["w_pn"] = (sc.w_pn, lambda w: (1.0 + w) / a_of_w(fam, dims, w) - target)
        equations["w_eta"] = (mc.w_eta,
                              lambda w: (gf.g3(w) + (1.0 + w) * scale) / gf.g1(w) - 1.0)
    else:
        assert mc.w_eta is None
    for label, (root, eq) in equations.items():
        d = 4.0 * EPS * root
        below, at, above = (float(eq(np.float64(v))) for v in (root - d, root, root + d))
        assert at == 0.0 or (below > 0.0) != (above > 0.0), label
