import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinmse as sm
from steinmse.matrix_improved import b_of_w, beta_j
from steinmse.mse_improved import alpha_pn, solve_w_pn
from steinmse.shrinkage import risk_reduction_integrand
from steinmse.umvue import g_functions
from _oracles import mse_matrix_monte_carlo, true_risk_monte_carlo, truth_mpmath

TABLE_DIMS = ((5, 5), (10, 5), (5, 10), (10, 10))
ORACLE_DIMS = TABLE_DIMS + ((3, 1), (5, 310), (200, 1000))
FAMILIES = ("james-stein", "positive-part")


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


@pytest.mark.parametrize("x, s", [([1.0, 0.3, 2.0, 0.5, 1.0], 1e-320),
                                  ([1e155, 1.0, 1.0], 1.0)], ids=["tiny-s", "huge-x"])
def test_observation_rejects_a_w_that_overflows(x, s):
    # Finite x and s whose W = ||x||^2 / s overflows a double: the estimates
    # would turn it into an infinite radius or volume.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # refused without a raw warning
        with pytest.raises(ValueError, match="W = .* must be finite"):
            sm.Observation(x, s)


def test_observation_keeps_a_finite_w_whose_squared_norm_overflows():
    # ||x||^2 = 1e310 overflows, W = 1e10 does not; an ordinary W keeps its bits.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert sm.Observation([1e155, 1.0, 1.0], 1e300).w == pytest.approx(1e10, rel=1e-15)
    x = np.array([1.5, 0.3, -0.2, 0.8, 2.0])
    assert sm.Observation(x, 4.0).w == float(x @ x) / 4.0


def _jump_family(dims):
    """phi = c 1{W > 1} with c = (p-2)/(n+2), whose phi' = 0 misses the jump."""
    c = dims.shrink_constant
    return sm.ShrinkageFamily.custom(lambda w: c * (np.asarray(w, dtype=float) > 1.0),
                                     lambda w: np.zeros(np.shape(w)), phi_continuous=False,
                                     label="jump")


def test_discontinuous_phi_is_refused_wherever_phi_prime_is_read():
    # Stein's identity gains a jump term that phi' = 0 misses: true_risk
    # used to return 4.656 at lambda = 0 and 4.566 at lambda = 5, where
    # direct draws of ||delta - theta||^2 give 3.770 and 3.905.
    dims = sm.ProblemDims(5, 5)
    fam = _jump_family(dims)
    refusals = [lambda: sm.true_risk(fam, dims, 0.0), lambda: sm.true_risk(fam, dims, 5.0),
                lambda: alpha_pn(fam, dims), lambda: beta_j(1, fam, dims, 0),
                lambda: beta_j(2, fam, dims, 3), lambda: sm.shrinkage_constants(fam, dims),
                lambda: sm.matrix_constants(fam, dims),
                lambda: risk_reduction_integrand(fam, dims, 2.0),
                lambda: b_of_w(fam, dims, 2.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any scan warns
        for call in refusals:
            with pytest.raises(ValueError, match="continuous phi"):
                call()


def test_discontinuous_phi_keeps_what_reads_no_phi_prime():
    dims = sm.ProblemDims(5, 5)
    fam = _jump_family(dims)
    c = dims.shrink_constant
    obs = sm.Observation([2.0, 0.0, 0.0, 0.0, 0.0], 1.0)  # W = 4, above the jump
    assert sm.apply_estimator(obs, fam, dims).tolist() == [(1.0 - c / 4.0) * 2.0, 0, 0, 0, 0]
    assert sm.shrink_factors(fam, [0.5, 4.0]).tolist() == [1.0, 1.0 - c / 4.0]
    lam = 5.0
    theta = np.sqrt(lam / dims.p) * np.ones(dims.p)
    mean, se = mse_matrix_monte_carlo(fam, theta, dims.n, 100_000, np.random.default_rng(45))
    a, b = sm.true_mse_matrix(fam, dims, lam)
    assert np.all(np.abs(mean - (a * np.eye(dims.p) + b * np.outer(theta, theta))) < 4.0 * se)


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


@pytest.mark.parametrize("design, response, match", [
    (np.arange(6.0), np.arange(6.0), "2-D"),
    (np.eye(6)[:, :3], np.arange(5.0), "response length"),
    (np.eye(3), np.arange(3.0), "more observations than regressors"),
    (np.eye(6)[:, :3], np.array([1.0, 2.0, 3.0, 0.0, 0.0, 0.0]), "fits the data exactly"),
], ids=["one-dimensional-design", "short-response", "no-residual-df", "exact-fit"])
def test_canonicalize_rejects_unusable_inputs(design, response, match):
    with pytest.raises(ValueError, match=match):
        sm.canonicalize_regression(design, response)


def test_apply_estimator_rejects_an_observation_of_another_length():
    dims = sm.ProblemDims(5, 5)
    with pytest.raises(ValueError, match="length 4, expected p=5"):
        sm.apply_estimator(sm.Observation(np.ones(4), 1.0), sm.family_from_name("js", dims), dims)


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
        assert sm.true_risk(fam, dims, 0.0) == p - alpha_pn(fam, dims)


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


@pytest.mark.parametrize("fam_name", FAMILIES)
@pytest.mark.parametrize("p,n", ORACLE_DIMS)
def test_exact_truth_matches_mpmath(p, n, fam_name):
    # The oracle takes a and b from the Judge & Bock mixtures in their plain
    # form at 40 digits and the risk as the trace p a + lam b, so it shares
    # neither the Stein-identity form of the risk nor the per-k terms of b.
    dims = sm.ProblemDims(p, n)
    fam = sm.family_from_name(fam_name, dims)
    lams = (0.0, 1.0, 20.0, 300.0)
    got = (sm.true_risk(fam, dims, lams),) + sm.true_mse_matrix(fam, dims, lams)
    for i, lam in enumerate(lams):
        for g, ref in zip(got, truth_mpmath(fam_name, p, n, lam)):
            assert g[i] == pytest.approx(float(ref), rel=5e-13), lam


@pytest.mark.parametrize("fam_name", FAMILIES)
@pytest.mark.parametrize("p,n", [(3, 1), (5, 5)])
def test_matrix_b_at_large_signal_matches_mpmath(p, n, fam_name):
    # b is about 1e-12 at lam = 1e6; formed as E[h^2] - 2 E[h] + 1 from O(1)
    # mixtures, it was 2.7e-4 off at James-Stein (3,1). The test suite makes
    # every RuntimeWarning an error, so none fires up to lam = 1e6.
    dims = sm.ProblemDims(p, n)
    _, b = sm.true_mse_matrix(sm.family_from_name(fam_name, dims), dims, 1e6)
    assert b == pytest.approx(float(truth_mpmath(fam_name, p, n, 1e6)[2]), rel=1e-12)


@pytest.mark.parametrize("fam_name", FAMILIES)
@pytest.mark.parametrize("p,n", ORACLE_DIMS)
def test_matrix_trace_is_scalar_risk_up_to_large_signal(p, n, fam_name):
    # At (200, 1000) and lam = 0 the risk p - m(p) keeps 1/155 of m(p) and a
    # is a like difference, so each is 1e-13 off the 40-digit oracle
    # (which holds them to 5e-13) from 2e-15 moments, and they differ by 1.5e-13.
    dims = sm.ProblemDims(p, n)
    fam = sm.family_from_name(fam_name, dims)
    lams = np.array([0.0, 3.0, 50.0, 200.0, 1e4, 1e6])
    a, b = sm.true_mse_matrix(fam, dims, lams)
    rtol = 2e-13 if (p, n) == (200, 1000) else 1e-13
    np.testing.assert_allclose(p * a + b * lams, sm.true_risk(fam, dims, lams), rtol=rtol, atol=0)


@pytest.mark.parametrize("fam_name", FAMILIES)
@pytest.mark.parametrize("p,n", [(3, 1), (5, 5), (200, 1000)])
def test_truth_of_a_noncentrality_has_the_same_bits_alone_and_in_a_grid(p, n, fam_name):
    # Overlapping and far-apart Poisson windows, out of order, and a 2-D grid.
    dims = sm.ProblemDims(p, n)
    fam = sm.family_from_name(fam_name, dims)
    lams = np.array([[20.0, 0.0, 1.0], [300.0, 1e4, 1e6]])
    risks = sm.true_risk(fam, dims, lams)
    a, b = sm.true_mse_matrix(fam, dims, lams)
    assert risks.shape == a.shape == b.shape == lams.shape
    for i in np.ndindex(lams.shape):
        lam = float(lams[i])
        assert sm.true_risk(fam, dims, lam) == risks[i]
        assert sm.true_mse_matrix(fam, dims, lam) == (a[i], b[i])


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
    calls = (lambda: g_functions(fam, other), lambda: alpha_pn(fam, other),
             lambda: solve_w_pn(fam, other, 1.0), lambda: beta_j(1, fam, other, 0),
             lambda: sm.true_risk(fam, other, 3.0), lambda: sm.true_mse_matrix(fam, other, 3.0),
             lambda: sm.umvue_mse(obs, fam, other))
    for call in calls:
        with pytest.raises(ValueError, match="built for"):
            call()
