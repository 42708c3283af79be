import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import steinmse as sm
from steinmse.umvue import a_of_w, g_functions, g_transform
from _oracles import dense_quad_form, g_kernels_mpmath, js_plus_alpha_quad


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


_UNIT = st.floats(-1.0, 1.0)


class TestAxialMatrix:
    @given(data=st.data(), p=st.integers(1, 12), scale=st.floats(1e-3, 1e3),
           iso=st.floats(1e-2, 1e2), ratio=st.floats(1e-2, 1e2))
    @settings(max_examples=200, deadline=None)
    def test_eigen_structure(self, data, p, scale, iso, ratio):
        # The O(p) algebra against the dense matrix: eigenvalues, trace,
        # log-determinant and the inverse quadratic form. The axis
        # eigenvalue is iso * ratio, so the condition number stays <= 1e4.
        v = np.array(data.draw(st.lists(_UNIT, min_size=p, max_size=p)))
        assume(np.linalg.norm(v) > 0.1)
        d = np.array(data.draw(st.lists(_UNIT, min_size=p, max_size=p)))
        m = sm.AxialMatrix(p, scale, iso, iso * (ratio - 1.0), v / np.linalg.norm(v))
        dense = m.to_dense()
        eigs = np.linalg.eigvalsh(dense)
        np.testing.assert_allclose(np.sort(m.eigenvalues()), eigs, rtol=1e-12,
                                   atol=1e-12 * eigs.max())
        assert m.trace() == pytest.approx(np.trace(dense), rel=1e-12)
        assert m.logdet() == pytest.approx(np.linalg.slogdet(dense)[1], rel=1e-10, abs=1e-10)
        assert sm.quad_form_inv(m, d) == pytest.approx(dense_quad_form(dense, d), rel=1e-9,
                                                        abs=1e-300)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            sm.AxialMatrix(3, 1.0, 1.0, 0.0, np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("dim, scale, axis, match", [
        (0, 1.0, [], "dim must be at least 1"),
        (3, 0.0, [1.0, 0.0, 0.0], "scale must be positive"),
        (3, math.inf, [1.0, 0.0, 0.0], "scale must be positive"),
        (3, 1.0, [1.0, 0.0], "axis must have length 3"),
        (3, -1.0, [1.0, 0.0, 0.0], "scale must be positive"),
        (3, -math.inf, [1.0, 0.0, 0.0], "scale must be positive"),
        (3, math.nan, [1.0, 0.0, 0.0], "scale must be positive"),
    ])
    def test_rejects_bad_parts(self, dim, scale, axis, match):
        with pytest.raises(ValueError, match=match):
            sm.AxialMatrix(dim, scale, 1.0, 0.0, np.array(axis))

    @pytest.mark.parametrize("read_only", [False, True], ids=["copied", "shared"])
    def test_axis_norm_tolerance_is_1e_12(self, read_only):
        # A read-only axis that owns its data is kept without a copy, and
        # is checked all the same.
        def axis(values):
            u = np.array(values, dtype=float)
            u.setflags(write=not read_only)
            return u

        with pytest.raises(ValueError, match="axis must have length 3"):
            sm.AxialMatrix(3, 1.0, 1.0, 0.0, axis([1.0, 0.0]))
        for off in (1.1e-12, -1.1e-12):
            with pytest.raises(ValueError, match="axis must be a unit vector"):
                sm.AxialMatrix(3, 1.0, 1.0, 0.0, axis([1.0 + off, 0.0, 0.0]))
        for off in (0.9e-12, -0.9e-12):
            u = axis([1.0 + off, 0.0, 0.0])
            m = sm.AxialMatrix(3, 1.0, 1.0, 0.0, u)
            assert m.axis[0] == 1.0 + off and (m.axis is u) == read_only

    def test_logdet_requires_positive_definite(self):
        u = np.array([1.0, 0.0, 0.0])
        m = sm.AxialMatrix(3, 1.0, 0.5, -0.7, u)
        assert not m.is_positive_definite
        with pytest.raises(ValueError):
            m.logdet()


class TestGTransform:
    def test_zero_integrand(self):
        assert g_transform(lambda t: 0.0, DIMS, 2.0) == 0.0

    def test_power_integrand_analytic(self):
        # h(t) = c/t has antiderivative -2c t^{-n/2-1}/(n+2) against the
        # kernel, giving g(w) = 2c/((n+2) w).
        c = (DIMS.p - 2.0) ** 2 / (DIMS.n + 2.0)
        for w in (0.3, 1.0, 4.0):
            got = g_transform(lambda t: c / t, DIMS, w)
            want = 2.0 * c / ((DIMS.n + 2.0) * w)
            assert got == pytest.approx(want, rel=1e-8)

    def test_js_g1_closed_form(self):
        k = DIMS.shrink_constant
        for w in (0.5, 1.0, 3.0):
            got = g_transform(lambda t: k / t, DIMS, w)
            assert got == pytest.approx(2.0 * (DIMS.p - 2.0) / ((DIMS.n + 2.0) ** 2 * w),
                                        rel=1e-8)

    @pytest.mark.parametrize("w", [[1.0, 0.0], [-2.0], [math.nan]])
    def test_rejects_nonpositive_w(self, w):
        with pytest.raises(ValueError, match="w must be positive"):
            g_transform(lambda t: 1.0 / t, DIMS, np.array(w))


class TestGFunctions:
    def test_js_values(self):
        gf = g_functions(JS, DIMS)
        assert float(gf.g1(1.0)) == pytest.approx(6.0 / 49.0, rel=1e-14)
        assert float(gf.g3(1.0)) == pytest.approx(21.0 / 49.0, rel=1e-14)
        assert float(gf.g2(1.0)) == pytest.approx(12.0 / 49.0, rel=1e-14)
        # a(W) = (n/p)(p g1 - g2 - phi^2/W), with p g1 - g2 = 18/49 here.
        assert float(a_of_w(JS, DIMS, 1.0)) == pytest.approx(9.0 / 49.0, rel=1e-14)

    @given(p=st.integers(3, 60), n=st.integers(1, 60),
           log_w=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
           name=st.sampled_from(["james-stein", "positive-part"]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_identities_hold_for_all_families(self, p, n, log_w, name):
        # g3 = g2 + phi^2/W and a(W) = (n/p)(p g1 - g2 - phi^2/W) at random
        # (p, n) and W over six decades, on both sides of the positive-part
        # kink.
        dims = sm.ProblemDims(p, n)
        fam = sm.family_from_name(name, dims)
        w = 10.0 ** np.array(log_w)
        gf = g_functions(fam, dims)
        phi = np.asarray(fam.phi(w))
        np.testing.assert_allclose(gf.g3(w), np.asarray(gf.g2(w)) + phi * phi / w, rtol=1e-12)
        np.testing.assert_allclose(a_of_w(fam, dims, w),
                                   (n / p) * (p * np.asarray(gf.g1(w)) - gf.g2(w) - phi * phi / w),
                                   rtol=1e-12)

    def test_quadrature_matches_closed_forms(self):
        # General-path kernels for a clone of the constant rule agree with
        # the closed forms to quadrature accuracy.
        clone = _js_clone_as_custom(DIMS)
        gf_q = g_functions(clone, DIMS)
        gf_c = g_functions(JS, DIMS)
        w = np.geomspace(0.1, 10.0, 7)
        np.testing.assert_allclose(gf_q.g1(w), gf_c.g1(w), rtol=1e-8)
        np.testing.assert_allclose(gf_q.g3(w), gf_c.g3(w), rtol=1e-8)
        np.testing.assert_allclose(gf_q.g2(w), gf_c.g2(w), rtol=1e-8)

    @pytest.mark.parametrize("p,n", [(5, 5), (10, 5), (5, 10), (10, 10)])
    @pytest.mark.parametrize("name", ["james-stein", "positive-part"])
    def test_custom_clone_kernels_match_closed_forms_across_the_kink(self, name, p, n):
        # The grid straddles the positive-part kink at W = k, which no one
        # declares to the quadrature. atol covers g2 near W = 0.02, where it
        # falls to about 1e-8 at (10, 10) and the 1e-14 absolute target is
        # the looser one.
        dims = sm.ProblemDims(p, n)
        fam = sm.family_from_name(name, dims)
        clone = sm.ShrinkageFamily.custom(fam.phi, fam.phi_prime, label="clone")
        gf_q, gf_c = g_functions(clone, dims), g_functions(fam, dims)
        w = np.geomspace(0.02, 50.0, 400)
        for kernel in ("g1", "g2", "g3"):
            np.testing.assert_allclose(getattr(gf_q, kernel)(w), getattr(gf_c, kernel)(w),
                                       rtol=1e-8, atol=1e-13, err_msg=kernel)

    def test_g_transform_takes_arrays(self):
        c = (DIMS.p - 2.0) ** 2 / (DIMS.n + 2.0)
        w = np.array([[0.3, 1.0], [4.0, 9.0]])
        got = g_transform(lambda t: c / t, DIMS, w)
        assert got.shape == w.shape
        np.testing.assert_allclose(got, 2.0 * c / ((DIMS.n + 2.0) * w), rtol=1e-10)

    def test_discontinuous_custom_rejected(self):
        step = lambda w: np.where(np.asarray(w) < 1.0, 0.0, 0.3) if np.ndim(w) \
            else (0.0 if w < 1.0 else 0.3)
        zero = lambda w: np.zeros(np.shape(w)) if np.ndim(w) else 0.0
        fam = sm.ShrinkageFamily.custom(step, zero, phi_continuous=False)
        with pytest.raises(ValueError):
            g_functions(fam, DIMS)


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_FAMILIES = st.sampled_from(["james-stein", "positive-part"])
# W over +-300 decades, and near the positive-part kink k, where both
# branches meet, within a factor 10^(+-3) of it.
_LOG_W = st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=6)
_LOG_W_OVER_K = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4)


class TestLargeDomain:
    """Every kernel, estimate and constant at dims far beyond the paper's
    tables, with any RuntimeWarning (an overflow on a branch not taken, say)
    an error."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(p=st.integers(3, 2000), n=st.integers(1, 10_000), log_w=_LOG_W,
           log_w_over_k=_LOG_W_OVER_K, name=_FAMILIES)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_kernels_match_the_mpmath_oracle(self, p, n, log_w, log_w_over_k, name):
        # The positive-part branch term is an n/2-th power, with condition
        # number n/2 in its rounded base, so each kernel holds to
        # 4 (n/2 + 1) ulps (about 1 was the worst seen), plus the underflow
        # level where its value leaves the doubles.
        dims = sm.ProblemDims(p, n)
        w = np.concatenate([10.0 ** np.array(log_w),
                            dims.shrink_constant * 10.0 ** np.array(log_w_over_k)])
        gf = g_functions(sm.family_from_name(name, dims), dims)
        got = (gf.g1(w), gf.g2(w), gf.g3(w))
        for i, wi in enumerate(w):
            want = [float(v) for v in g_kernels_mpmath(name, p, n, wi)]
            for kernel, values, exact in zip(("g1", "g2", "g3"), got, want):
                assert abs(values[i] - exact) <= 4 * _EPS * (0.5 * n + 1) * exact + _TINY, (
                    kernel, wi)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(p=st.integers(3, 2000), n=st.integers(1, 10_000), log_w=_LOG_W, name=_FAMILIES)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_every_estimate_is_finite(self, p, n, log_w, name):
        dims = sm.ProblemDims(p, n)
        fam = sm.family_from_name(name, dims)
        sc, mc = sm.shrinkage_constants(fam, dims), sm.matrix_constants(fam, dims)
        w = 10.0 ** np.array(log_w)
        s = np.ones_like(w)
        for kind in sm.MseEstimatorKind:
            est = np.asarray(sm.estimate_mse_at(kind, w, s, fam, dims, sc))
            assert np.all(np.isfinite(est)), kind
            if kind is not sm.MseEstimatorKind.UMVUE:
                assert np.all(est >= 0.0), kind
        for kind in sm.MatrixEstimatorKind:
            for part in sm.matrix_eigen_parts(kind, w, fam, dims, mc):
                assert np.all(np.isfinite(part)), kind
                if kind is sm.MatrixEstimatorKind.XI0_ETA0:
                    assert np.all(part >= 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p,n", [(5, 310), (10, 300), (30, 400)])
    @pytest.mark.parametrize("name", ["james-stein", "positive-part"])
    def test_constants_at_large_n(self, name, p, n):
        # k^(-n/2) overflows a double at these n; the constants never form it.
        dims = sm.ProblemDims(p, n)
        fam = sm.family_from_name(name, dims)
        sc, mc = sm.shrinkage_constants(fam, dims), sm.matrix_constants(fam, dims)
        values = [sc.alpha, sc.w_pn, sc.gamma, mc.beta.beta2, mc.w_xi, mc.w_eta,
                  mc.gamma_xi, mc.gamma_eta]
        assert all(math.isfinite(v) for v in values if v is not None)
        if name == "positive-part":
            assert sc.alpha == pytest.approx(js_plus_alpha_quad(p, n), rel=1e-9)


class TestUmvueMse:
    def test_js_closed_form(self):
        obs = sm.Observation([1.0, 0, 0, 0, 0], 1.0)  # S=1, W=1
        assert sm.umvue_mse(obs, JS, DIMS) == pytest.approx(1.0 - (3.0 / 7.0) ** 2, rel=1e-14)

    def test_zero_phi_gives_scale_estimate(self):
        obs = sm.Observation([1.0, 2.0, 0, 0, 0.5], 3.0)
        assert sm.umvue_mse(obs, _zero_family(), DIMS) == pytest.approx(
            DIMS.p * obs.s / DIMS.n, rel=1e-12)

    def test_positive_part_branch_value(self):
        # Below the kink: -pS/n + SW + C0 S W^{n/2}, with the branch
        # constant C0 = 2(p/n - k) k^{-n/2} at k = 3/7; independent scalar
        # arithmetic for the pieces.
        w, s = 0.2, 1.0
        obs = sm.Observation([np.sqrt(w * s), 0, 0, 0, 0], s)
        c0 = 2.0 * (1.0 - 3.0 / 7.0) * (3.0 / 7.0) ** -2.5
        want = -DIMS.p * s / DIMS.n + s * w + c0 * s * w ** (0.5 * DIMS.n)
        assert sm.umvue_mse(obs, PP, DIMS) == pytest.approx(want, rel=1e-12)

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
        gf = g_functions(PP, DIMS)
        right = np.nextafter(k, np.inf)
        for fn in (gf.g1, gf.g2, gf.g3):
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
