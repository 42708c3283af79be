import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinmse as sm
from _oracles import mse_matrix_monte_carlo, true_risk_monte_carlo

TABLE_DIMS = ((5, 5), (10, 5), (5, 10), (10, 10))


def _zero_family():
    zero = lambda w: np.zeros(np.shape(w)) if np.ndim(w) else 0.0
    return sm.ShrinkageFamily.custom(zero, zero, label="no-shrinkage")


def test_problem_dims_validation():
    sm.ProblemDims(3, 1)
    for p, n in [(2, 5), (0, 5), (5, 0), (5, -1)]:
        with pytest.raises(ValueError):
            sm.ProblemDims(p, n)


def test_observation_validation():
    with pytest.raises(ValueError):
        sm.Observation([1.0, 2.0], 0.0)
    obs = sm.Observation([3.0, 4.0], 5.0)
    assert obs.w == pytest.approx(5.0)


def test_james_stein_point_estimate():
    # Direct scalar arithmetic: w = 4/4 = 1, factor 1 - (3/7)/1 = 4/7.
    dims = sm.ProblemDims(5, 5)
    fam = sm.ShrinkageFamily.james_stein(dims)
    obs = sm.Observation([2.0, 0.0, 0.0, 0.0, 0.0], 4.0)
    est = sm.apply_estimator(obs, fam, dims)
    assert est == pytest.approx([8.0 / 7.0, 0, 0, 0, 0], rel=1e-14)


def test_zero_phi_is_identity():
    dims = sm.ProblemDims(4, 3)
    obs = sm.Observation([1.0, -2.0, 0.5, 3.0], 2.5)
    est = sm.apply_estimator(obs, _zero_family(), dims)
    assert np.array_equal(est, obs.x)


def test_positive_part_clamps_to_zero():
    dims = sm.ProblemDims(5, 5)
    fam = sm.ShrinkageFamily.positive_part(dims)
    # w = 0.25 <= (p-2)/(n+2) = 3/7, so the factor is exactly zero.
    obs = sm.Observation([0.5, 0.0, 0.0, 0.0, 0.0], 1.0)
    assert np.array_equal(sm.apply_estimator(obs, fam, dims), np.zeros(5))


def test_estimates_stay_collinear_with_data():
    dims = sm.ProblemDims(6, 4)
    rng = np.random.default_rng(3)
    for fam in (sm.ShrinkageFamily.james_stein(dims), sm.ShrinkageFamily.positive_part(dims)):
        for _ in range(25):
            x = rng.standard_normal(6)
            obs = sm.Observation(x, float(rng.uniform(0.2, 4.0)))
            est = sm.apply_estimator(obs, fam, dims)
            cross = np.outer(est, x) - np.outer(x, est)
            assert np.max(np.abs(cross)) < 1e-12 * max(1.0, np.max(np.abs(x)) ** 2)


def test_w_zero_shrinks_to_origin_with_warning():
    dims = sm.ProblemDims(5, 5)
    fam = sm.ShrinkageFamily.james_stein(dims)
    obs = sm.Observation(np.zeros(5), 2.0)
    with pytest.warns(sm.ShrunkToOriginWarning):
        est = sm.apply_estimator(obs, fam, dims)
    assert np.array_equal(est, np.zeros(5))
    # The positive-part rule reaches zero continuously: no warning.
    pp = sm.ShrinkageFamily.positive_part(dims)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(sm.apply_estimator(obs, pp, dims), np.zeros(5))


def test_canonicalize_orthonormal_design():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
    y = rng.standard_normal(12)
    obs, dims, basis = sm.canonicalize_regression(q, y)
    assert dims.p == 4 and dims.n == 8
    assert obs.x == pytest.approx(q.T @ y, rel=1e-12)
    assert basis == pytest.approx(np.eye(4), abs=1e-12)
    # Projection decomposition: ||X||^2 + S = ||Y||^2.
    assert float(obs.x @ obs.x) + obs.s == pytest.approx(float(y @ y), rel=1e-12)


def test_canonicalize_matches_least_squares_oracle():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((20, 5))
    beta = rng.standard_normal(5)
    y = a @ beta + 0.7 * rng.standard_normal(20)
    obs, dims, basis = sm.canonicalize_regression(a, y)
    fit, residual_ss, _, _ = np.linalg.lstsq(a, y, rcond=None)
    assert obs.s == pytest.approx(float(residual_ss[0]), rel=1e-10)
    assert dims.n == 15
    # basis contract: basis^{-1} X is the least-squares coefficient, so a
    # shrinkage estimate maps back to the coefficient scale the same way.
    assert np.linalg.solve(basis, obs.x) == pytest.approx(fit, rel=1e-9)


def test_canonicalize_rejects_rank_deficiency():
    a = np.ones((10, 3))
    a[:, 2] = 2.0 * a[:, 0]
    with pytest.raises(ValueError):
        sm.canonicalize_regression(a, np.arange(10.0))


def test_true_risk_zero_phi_is_exact():
    dims = sm.ProblemDims(5, 5)
    assert sm.true_risk(_zero_family(), dims, 3.0) == 5.0
    # h = 1 everywhere: M = I, up to the 1e-10 quadrature tolerance.
    assert sm.true_mse_matrix(_zero_family(), dims, 3.0) == pytest.approx((1.0, 0.0), abs=1e-10)


def test_true_risk_vanishes_at_large_signal():
    dims = sm.ProblemDims(5, 5)
    fam = sm.ShrinkageFamily.james_stein(dims)
    risk = sm.true_risk(fam, dims, 1e6)
    assert 5.0 - 1e-4 < risk < 5.0


def test_true_risk_zero_signal_closed_form():
    # At zero signal the James-Stein risk is p - n(p-2)/(n+2) = 20/7.
    dims = sm.ProblemDims(5, 5)
    fam = sm.ShrinkageFamily.james_stein(dims)
    assert sm.true_risk(fam, dims, 0.0) == pytest.approx(20.0 / 7.0, rel=1e-15)


def test_james_stein_dominates_on_grid():
    dims = sm.ProblemDims(5, 5)
    fam = sm.ShrinkageFamily.james_stein(dims)
    for lam in (0.0, 1.0, 4.0, 10.0, 30.0):
        assert sm.true_risk(fam, dims, lam) < dims.p


@pytest.mark.parametrize("p,n", TABLE_DIMS + ((3, 1),))
def test_true_risk_at_zero_is_p_minus_alpha(p, n):
    dims = sm.ProblemDims(p, n)
    for fam in (sm.ShrinkageFamily.james_stein(dims), sm.ShrinkageFamily.positive_part(dims)):
        assert sm.true_risk(fam, dims, 0.0) == p - sm.alpha_pn(fam, dims)


@pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
def test_truth_rejects_bad_noncentrality(lam):
    dims = sm.ProblemDims(5, 5)
    fam = sm.ShrinkageFamily.positive_part(dims)
    with pytest.raises(ValueError):
        sm.true_risk(fam, dims, lam)
    with pytest.raises(ValueError):
        sm.true_mse_matrix(fam, dims, lam)


@pytest.mark.parametrize("lam", [0.0, 5.0, 20.0])
@pytest.mark.parametrize("fam_name", ["james-stein", "positive-part"])
@pytest.mark.parametrize("p,n", TABLE_DIMS)
def test_exact_truth_matches_monte_carlo_oracles(p, n, fam_name, lam):
    # The dense Monte Carlo matrix is checked entry by entry against
    # a I + b theta theta', the Monte Carlo risk against true_risk.
    dims = sm.ProblemDims(p, n)
    fam = sm.family_from_name(fam_name, dims)
    gen = np.random.default_rng((p, n, len(fam_name), int(lam)))
    reps = 100_000
    risk, risk_se = true_risk_monte_carlo(fam, dims, lam, reps, gen)
    assert abs(risk - sm.true_risk(fam, dims, lam)) < 4.0 * risk_se
    theta = np.sqrt(lam / p) * np.ones(p)
    mean, se = mse_matrix_monte_carlo(fam, theta, n, reps, gen)
    a, b = sm.true_mse_matrix(fam, dims, lam)
    exact = a * np.eye(p) + b * np.outer(theta, theta)
    assert np.all(np.abs(mean - exact) < 4.0 * se)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(p=st.integers(3, 30), n=st.integers(1, 30), lam=st.floats(0.0, 200.0),
       fam_name=st.sampled_from(["james-stein", "positive-part"]))
def test_matrix_trace_is_scalar_risk(p, n, lam, fam_name):
    # tr(a I + b theta theta') = p a + b lam is the scalar risk. The two
    # sides share no moment formula: the scalar side uses E[W; W < c], the
    # matrix side E[1/W^2; W > c]. Over the whole integer grid at
    # lam in {0, 3, 50, 200} they agree to 3.4e-14.
    dims = sm.ProblemDims(p, n)
    fam = sm.family_from_name(fam_name, dims)
    a, b = sm.true_mse_matrix(fam, dims, lam)
    assert p * a + b * lam == pytest.approx(sm.true_risk(fam, dims, lam), rel=1e-12)


def test_family_from_name_aliases():
    dims = sm.ProblemDims(5, 5)
    assert sm.family_from_name("js", dims).kind is sm.FamilyKind.JAMES_STEIN
    assert sm.family_from_name("js-plus", dims).kind is sm.FamilyKind.POSITIVE_PART
    with pytest.raises(ValueError):
        sm.family_from_name("ridge", dims)


@pytest.mark.parametrize("make", [sm.ShrinkageFamily.james_stein,
                                  sm.ShrinkageFamily.positive_part])
def test_built_in_family_rejects_other_dims(make):
    # A (5,5) rule used with (10,5) would mix its phi with the closed forms
    # of the (10,5) rule.
    fam, other = make(sm.ProblemDims(5, 5)), sm.ProblemDims(10, 5)
    obs = sm.Observation(np.linspace(-1.0, 1.0, 10), 2.0)
    calls = (lambda: sm.g_functions(fam, other), lambda: sm.alpha_pn(fam, other),
             lambda: sm.solve_w_pn(fam, other, 1.0), lambda: sm.beta_j(1, fam, other, 0),
             lambda: sm.true_risk(fam, other, 3.0), lambda: sm.true_mse_matrix(fam, other, 3.0),
             lambda: sm.umvue_mse(obs, fam, other))
    for call in calls:
        with pytest.raises(ValueError, match="built for"):
            call()
