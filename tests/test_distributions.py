import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc, betaincc, betaln

import steinmse as sm
from _oracles import (chi2_cdf_df4_quad, chi2_pdf, f_quantile_by_quadrature,
                      ratio_chi2_density, ratio_moments_mpmath)
from steinmse.distributions import (_LADDER_BLOCK, _beta_fraction, _betainc_pair, poisson_weights,
                                    ratio_expectation, ratio_moment_ladder, ratio_partial_moments)
from steinmse.umvue import g_transform


def test_chi2_pdf_exponential_case():
    # 2 df is the rate-1/2 exponential.
    assert chi2_pdf(2.0, 2) == pytest.approx(np.exp(-1.0) / 2.0, rel=1e-12)
    assert chi2_pdf(0.0, 2) == 0.5


def test_chi2_pdf_matches_numerical_cdf_derivative():
    # Oracle: the elementary 4-df density integrated by quadrature, then
    # differentiated with a Richardson-extrapolated central stencil.
    h = 1e-2
    deriv = (8.0 * (chi2_cdf_df4_quad(1 + 0.5 * h) - chi2_cdf_df4_quad(1 - 0.5 * h))
             - (chi2_cdf_df4_quad(1 + h) - chi2_cdf_df4_quad(1 - h))) / (6.0 * h)
    assert abs(chi2_pdf(1.0, 4) - deriv) < 1e-8


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 40])
def test_chi2_pdf_normalizes(k):
    total, _ = quad(chi2_pdf, 0.0, np.inf, args=(k,), limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_chi2_pdf_domain_errors():
    with pytest.raises(ValueError):
        chi2_pdf(-0.5, 3)
    with pytest.raises(ValueError):
        chi2_pdf(1.0, 0)


def noncentral_chi2_pdf(x, k, lam):
    """Noncentral chi-square density as the Poisson(lam/2) mixture of central
    densities, with the library's mixture weights."""
    j0, w = poisson_weights(0.5 * lam)
    return sum(wi * chi2_pdf(x, k + 2 * (j0 + i)) for i, wi in enumerate(w))


def test_noncentral_reduces_to_central():
    assert poisson_weights(0.0) == (0, pytest.approx([1.0]))
    xs = np.linspace(0.01, 30.0, 40)
    assert np.allclose(noncentral_chi2_pdf(xs, 5, 0.0), chi2_pdf(xs, 5), rtol=1e-13)


@pytest.mark.parametrize("k,lam", [(5, 2.0), (3, 0.4), (8, 25.0)])
def test_noncentral_pdf_normalizes(k, lam):
    total, _ = quad(lambda x: noncentral_chi2_pdf(x, k, lam), 0.0, np.inf, limit=300)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_noncentral_pdf_matches_sampling():
    # Oracle: 1e6 draws of ||N(theta, I_5)||^2 with ||theta||^2 = 2; the
    # expected bin probability is the exact integral of the density over
    # the bin, so there is no binning bias in the comparison.
    k, lam = 5, 2.0
    n_draws = 10 ** 6
    g = sm.RngStream(1234).generator()
    theta = np.sqrt(lam / k) * np.ones(k)
    draws = ((theta + g.standard_normal((n_draws, k))) ** 2).sum(axis=1)
    lo, hi = 2.95, 3.05
    p_hat = np.mean((draws >= lo) & (draws < hi))
    p_bin, _ = quad(lambda x: noncentral_chi2_pdf(x, k, lam), lo, hi, epsabs=1e-12)
    se = np.sqrt(p_bin * (1 - p_bin) / n_draws)
    assert abs(p_hat - p_bin) < 3.0 * se


@pytest.mark.parametrize("x,k,lam", [(3.0, 5, 0.5), (3.0, 5, 2.0), (12.0, 4, 50.0),
                                     (600.0, 6, 500.0), (0.3, 3, 9.0)])
def test_noncentral_truncation_loss_bounded(x, k, lam):
    # The weight window must not discard more than 1e-12 of the mixture
    # mass relative to the full sum (bounded by the Poisson tail). The
    # reference extends the summation far past where the window ends.
    from scipy.special import gammaln

    compact = noncentral_chi2_pdf(x, k, lam)
    log_half = np.log(0.5 * lam)
    j_hi = int(0.5 * lam) + max(200, int(20 * np.sqrt(lam) + 50))
    js = np.arange(0, j_hi)
    half = 0.5 * k + js
    log_terms = (-0.5 * lam + js * log_half - gammaln(js + 1)
                 + (half - 1.0) * np.log(x) - 0.5 * x - half * np.log(2.0) - gammaln(half))
    reference = float(np.exp(log_terms).sum())
    assert abs(compact - reference) <= 1e-12 * reference


@pytest.mark.parametrize("mean", [1e-9, 0.3, 7.5, 250.0, 5e5])
def test_poisson_weights_moments_and_width(mean):
    # A Poisson law has mean and variance both equal to its parameter, and
    # the window holds O(sqrt(mean)) terms, so mean 5e5 (lam = 1e6) stays
    # a few thousand terms.
    j0, w = poisson_weights(mean)
    j = j0 + np.arange(len(w))
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    assert float(w @ j) == pytest.approx(mean, rel=1e-12, abs=1e-15)
    assert float(w @ (j - mean) ** 2) == pytest.approx(mean, rel=1e-9, abs=1e-15)
    assert len(w) <= 20.0 * np.sqrt(mean) + 41


@pytest.mark.parametrize("mean", [-0.5, np.nan, np.inf])
def test_poisson_weights_rejects_bad_mean(mean):
    with pytest.raises(ValueError):
        poisson_weights(mean)


def _inverse_square_above(k, n, c):
    """E[1/W^2; W > c] at k > 4 from the ladder up from k = 5 or 6."""
    k0 = 5 + (k - 5) % 2
    return ratio_moment_ladder(k0, n, c, [(k - k0) // 2], inverse_square=True)[3][0]


@pytest.mark.parametrize("k,n,c", [(5, 5, 0.0), (7, 5, 0.4286), (12, 1, 0.5), (9, 10, 2.0)])
def test_inverse_square_above_matches_quadrature(k, n, c):
    # Oracle: direct quadrature of w^-2 against the chi-square ratio density.
    val, _ = quad(lambda w: ratio_chi2_density(w, k, n) / (w * w), c, np.inf,
                  epsabs=0.0, epsrel=1e-12, limit=400)
    assert _inverse_square_above(k, n, c) == pytest.approx(val, rel=1e-9)


def test_inverse_square_above_domain_errors():
    with pytest.raises(ValueError, match="needs k > 4"):
        ratio_moment_ladder(4, 5, 0.0, [1], inverse_square=True)
    with pytest.raises(ValueError):
        ratio_moment_ladder(6, 5, -1.0, [0], inverse_square=True)
    with pytest.raises(ValueError, match="nonnegative integers"):
        ratio_moment_ladder(6, 5, 0.5, [-1])


def test_f_quantile_median_symmetry():
    # F(d, d) has median exactly 1 by reciprocal symmetry.
    assert sm.f_quantile(0.5, 7, 7) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d1,d2,frozen", [(5, 5, 5.050329), (10, 10, 2.978237)])
def test_f_quantile_against_quadrature_oracle(d1, d2, frozen):
    got = sm.f_quantile(0.95, d1, d2)
    oracle = f_quantile_by_quadrature(0.95, d1, d2)
    assert got == pytest.approx(oracle, abs=1e-7)
    assert got == pytest.approx(frozen, abs=1e-4)


def test_f_quantile_beyond_1e14_or_where_the_cdf_rounds_to_one():
    # F(1, 2) has CDF sqrt(x/(x + 2)), so at q = 1 - 2**-53 its quantile,
    # 2 q^2/(1 - q^2), is 2**53 to within an ulp.
    assert sm.f_quantile(1.0 - 2.0 ** -53, 1, 2) == pytest.approx(2.0 ** 53, rel=1e-15)
    # F(1, 1) at q = 1 - 1e-13 lies near 4e25, beyond the solver's bracket
    # of 2**60, where y = x/(x + 1) rounds to 1; it is refused.
    with pytest.raises(RuntimeError, match="rounds to 1"):
        sm.f_quantile(1.0 - 1e-13, 1, 1)


@pytest.mark.parametrize("d1", [1, 3, 10])
@pytest.mark.parametrize("q", [1.0 - 1e-13, 1.0 - 1e-14, 1.0 - 1e-15])
def test_f_quantile_near_one_against_the_d2_2_closed_form(q, d1):
    # F(d1, 2) has CDF y^{d1/2}, so its quantile is 2y/(d1(1 - y)) with
    # y = q^{2/d1}. Near q = 1 the upper tail, not 1 - (1 - tail), is matched.
    with mpmath.workdps(40):
        y = mpmath.mpf(q) ** (mpmath.mpf(2) / d1)
        want = 2 * y / (d1 * (1 - y))
    assert float(abs(sm.f_quantile(q, d1, 2) - want) / want) < 1e-12


def test_f_quantile_strictly_increasing():
    qs = np.linspace(0.05, 0.95, 19)
    vals = [sm.f_quantile(q, 6, 9) for q in qs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_f_quantile_domain_errors():
    for q in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            sm.f_quantile(q, 5, 5)
    with pytest.raises(ValueError):
        sm.f_quantile(0.5, 0, 5)


def test_normal_sampler_batch_scale_moments():
    # The op draws from a Philox stream; at the 1e6 scale the stream's
    # batched output must satisfy the tight law-of-large-numbers bounds.
    g = sm.RngStream(11).generator()
    coords = 2.0 + g.standard_normal(10 ** 6)
    assert abs(coords.mean() - 2.0) < 0.004
    assert abs(coords.var(ddof=1) - 1.0) < 0.006


def test_chi2_sampler_batch_scale_moments():
    g = sm.RngStream(13).generator()
    draws = g.chisquare(5, 10 ** 6)
    assert abs(draws.mean() - 5.0) < 0.02
    assert abs(4.0 * draws.mean() - 20.0) < 0.08


@pytest.mark.parametrize("field", ["seed", "stream_id"])
def test_rng_stream_rejects_keys_outside_64_bits(field):
    # A 64-bit mask would make -1 draw 2**64 - 1's numbers and 2**64 draw 0's.
    for bad in (-1, 2 ** 64):
        with pytest.raises(ValueError, match=field):
            sm.RngStream(**{"seed": 0, field: bad})
    top = sm.RngStream(**{"seed": 0, field: 2 ** 64 - 1}).generator().random(4)
    assert not np.array_equal(top, sm.RngStream(0, 0).generator().random(4))


_KERNEL_ARGS = dict(a=st.floats(0.5, 300.0), b=st.floats(0.5, 50.0), x=st.floats(0.01, 0.99))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(**_KERNEL_ARGS)
def test_betainc_pair_matches_scipy(a, b, x):
    # Relative accuracy on both tails wherever the reference is not deep in
    # underflow; the small tail is the one the fraction computes.
    lower, upper = _betainc_pair(a, b, x)
    for got, ref in ((lower, float(betainc(a, b, x))), (upper, float(betaincc(a, b, x)))):
        if ref >= 1e-100:
            assert got == pytest.approx(ref, rel=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(**_KERNEL_ARGS)
def test_betainc_pair_complement_and_contiguous_relation(a, b, x):
    # I + (1 - I) is one to the last bit, and, away from underflow,
    # I_x(a+1, b) = I_x(a, b) - x^a (1-x)^b / (a B(a, b)).
    lower, upper = _betainc_pair(a, b, x)
    assert abs(lower + upper - 1.0) <= 2.0 ** -52
    if lower < 1e-100:
        return
    step = math.exp(a * math.log(x) + b * math.log1p(-x) - float(betaln(a, b))) / a
    assert _betainc_pair(a + 1.0, b, x)[0] == pytest.approx(lower - step,
                                                            abs=1e-12 * lower, rel=1e-12)


@pytest.mark.parametrize("p", [3, 5, 10, 29, 40])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 27, 30])
def test_partial_moments_match_mpmath(p, n):
    # The three partial moments and E[1/W^2; W > c] at the positive-part
    # cut, for k = p + 2j across the j-scan, against 40-digit references.
    # Each k is checked both in the scalar and in the ladders from k = p
    # (and from k = 5 or 6 for E[1/W^2]), which cross a block boundary.
    c = (p - 2.0) / (n + 2.0)
    ks = [p + 2 * j for j in (0, 1, 3, 10, 50, 200)]
    ladder = ratio_moment_ladder(p, n, c, [(k - p) // 2 for k in ks])
    for i, k in enumerate(ks):
        ref = ratio_moments_mpmath(k, n, c)
        inv2 = _inverse_square_above(k, n, c) if k > 4 else None
        for got in (ratio_partial_moments(k, n, c), tuple(m[i] for m in ladder[:3])):
            for g, r in zip(got + (inv2,), ref):
                if r is not None:
                    assert g == pytest.approx(float(r), rel=5e-13), (k, n)


@pytest.mark.parametrize("c", [0.01, 0.3, 1.0, 4.0, 60.0])
@pytest.mark.parametrize("k,n", [(3, 1), (5, 2), (6, 5), (12, 3), (41, 30)])
def test_partial_moments_match_mpmath_on_both_sides_of_the_mean(k, n, c):
    # Cuts far below and far above the mean of W, so that each tail is
    # computed both directly and as a complement.
    # The ladder reaches k from k = 3 or 4.
    ref = ratio_moments_mpmath(k, n, c)
    inv2 = _inverse_square_above(k, n, c) if k > 4 else None
    ladder = ratio_moment_ladder(3 + (k - 3) % 2, n, c, [(k - 3) // 2])
    for got in (ratio_partial_moments(k, n, c), tuple(m[0] for m in ladder[:3])):
        for g, r in zip(got + (inv2,), ref):
            if r is not None:
                assert g == pytest.approx(float(r), rel=5e-13)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k0=st.integers(5, 400), n=st.integers(1, 400), c=st.floats(0.01, 100.0),
       steps=st.lists(st.integers(0, 4 * _LADDER_BLOCK), min_size=1, max_size=12))
def test_ladder_value_depends_on_its_step_alone(k0, n, c, steps):
    # Every step has the bits it has when asked for alone, and at a block
    # boundary the bits of the scalar continued fractions.
    ladder = ratio_moment_ladder(k0, n, c, steps, inverse_square=True)
    for i, l in enumerate(steps):
        alone = ratio_moment_ladder(k0, n, c, [l], inverse_square=True)
        assert [m[i] for m in ladder] == [m[0] for m in alone]
        if l % _LADDER_BLOCK == 0:
            assert tuple(m[i] for m in ladder[:3]) == ratio_partial_moments(k0 + 2 * l, n, c)


def test_partial_moment_below_cut_at_large_odd_n():
    # E[W; W < c] at (k, n) = (29, 27), c = 27/29, by 40-digit quadrature of
    # w against the chi-square ratio density; the hypergeometric series once
    # lost 12 digits here (1.8e-12 off).
    k, n, c = 29, 27, 27.0 / 29.0
    with mpmath.workdps(40):
        a, b = mpmath.mpf(k) / 2, mpmath.mpf(n) / 2
        density = lambda w: w ** (a - 1) / (1 + w) ** (a + b) / mpmath.beta(a, b)
        ref = mpmath.quad(lambda w: w * density(w), [0, mpmath.mpf(c)])
    assert ratio_partial_moments(k, n, c)[2] == pytest.approx(float(ref), rel=1e-14)


@pytest.mark.parametrize("k,n,c", [(3, 1, 3e3), (5, 1, 1e4), (5, 2, 1e4), (41, 2, 1e4)])
def test_partial_moment_below_cut_at_n_le_2_and_large_cut_matches_mpmath(k, n, c):
    # E[W; W < c] at n <= 2, where b - 1 <= 0 and the fraction runs for the
    # unregularized B_x(a+1, b-1), at cuts far above the bulk of W. Forming
    # x = c/(1+c) in double already costs up to c 2**-53 relative here.
    ref = ratio_moments_mpmath(k, n, c)[2]
    assert ratio_partial_moments(k, n, c)[2] == pytest.approx(float(ref), rel=1e-12)


def test_fractions_that_do_not_converge_raise():
    # At a = b = 1e15 the fraction needs far more steps than it may take,
    # and so does the n <= 2 fraction for E[W; W < c] at
    # x = c/(1+c) = 1 - 1e-12, far above its switch point.
    with pytest.raises(RuntimeError, match="did not converge"):
        _beta_fraction(1e15, 1e15, 0.5)
    with pytest.raises(RuntimeError, match="incomplete beta fraction did not converge"):
        ratio_partial_moments(5, 1, 1e12)


@pytest.mark.parametrize("c", [-1.0, math.inf, math.nan])
def test_partial_moments_reject_bad_cut(c):
    with pytest.raises(ValueError):
        ratio_partial_moments(5, 5, c)
    with pytest.raises(ValueError):
        ratio_moment_ladder(6, 5, c, [0], inverse_square=True)


def test_partial_moments_reject_cut_where_x_rounds_to_one():
    with pytest.raises(ValueError):
        ratio_partial_moments(5, 5, 2.0 ** 53)


@pytest.mark.parametrize("k", [1, 2])
def test_partial_moments_need_k_above_two(k):
    with pytest.raises(ValueError, match="needs k > 2"):
        ratio_partial_moments(k, 5, 0.5)


@pytest.mark.parametrize("k,n", [(3, 1), (5, 1), (5, 2), (405, 5)])
def test_ratio_expectation_of_one_is_one(k, n):
    # End singularities t^{-1/2} and (1-t)^{-1/2}, and at (405, 5) a peak
    # of width about 1/200 against the end t = 1.
    assert ratio_expectation(np.ones_like, k, n) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("k,n", [(3, 3), (5, 5), (7, 3), (405, 5)])
def test_ratio_expectation_of_w_is_the_mean(k, n):
    assert ratio_expectation(lambda w: w, k, n) == pytest.approx(k / (n - 2.0), rel=1e-10)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(k=st.integers(3, 60), n=st.integers(1, 30), c=st.floats(0.01, 100.0))
def test_ratio_expectation_finds_an_undeclared_jump(k, n, c):
    # The mean of the step W < c is P(W < c), to the quadrature's target:
    # a relative 1e-10 or an absolute 1e-13, whichever is looser.
    got = ratio_expectation(lambda w: w < c, k, n)
    assert got == pytest.approx(ratio_partial_moments(k, n, c)[0], rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("mean", [
    lambda: ratio_expectation(lambda w: 1.0 / w, 2, 5),  # E[1/W] needs k > 2
    lambda: ratio_expectation(lambda w: w, 5, 2),  # E[W] needs n > 2
    lambda: g_transform(lambda t: t, sm.ProblemDims(5, 1), 1.0),
], ids=["inverse-k2", "mean-n2", "g-transform"])
def test_divergent_integrals_raise_quickly(mean):
    start = time.perf_counter()
    with pytest.raises(RuntimeError):
        mean()
    assert time.perf_counter() - start < 1.0


def test_partial_moment_cache_holds_the_table_constants_cycle():
    # The constants of the four table dims and both families ask for 424
    # distinct (k, n, c) keys in a fixed order; the cache must hold them all,
    # or a repeat of the cycle recomputes every one.
    def one_pass():
        for p, n in [(5, 5), (10, 5), (5, 10), (10, 10)]:
            dims = sm.ProblemDims(p, n)
            for name in ("james-stein", "positive-part"):
                fam = sm.family_from_name(name, dims)
                sm.shrinkage_constants(fam, dims)
                sm.matrix_constants(fam, dims)

    one_pass()
    before = ratio_partial_moments.cache_info()
    one_pass()
    after = ratio_partial_moments.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits
