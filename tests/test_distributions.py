import numpy as np
import pytest
from scipy.integrate import quad

import steinmse as sm
from _oracles import (chi2_cdf_df4_quad, chi2_pdf, f_quantile_by_quadrature,
                      ratio_chi2_density)
from steinmse.distributions import poisson_weights, ratio_inverse_square_above


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


@pytest.mark.parametrize("k,n,c", [(5, 5, 0.0), (7, 5, 0.4286), (12, 1, 0.5), (9, 10, 2.0)])
def test_inverse_square_above_matches_quadrature(k, n, c):
    # Oracle: direct quadrature of w^-2 against the chi-square ratio density.
    val, _ = quad(lambda w: ratio_chi2_density(w, k, n) / (w * w), c, np.inf,
                  epsabs=0.0, epsrel=1e-12, limit=400)
    assert ratio_inverse_square_above(k, n, c) == pytest.approx(val, rel=1e-9)


def test_inverse_square_above_domain_errors():
    with pytest.raises(ValueError):
        ratio_inverse_square_above(4, 5, 0.0)
    with pytest.raises(ValueError):
        ratio_inverse_square_above(6, 5, -1.0)


def test_f_quantile_median_symmetry():
    # F(d, d) has median exactly 1 by reciprocal symmetry.
    assert sm.f_quantile(0.5, 7, 7) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d1,d2,frozen", [(5, 5, 5.050329), (10, 10, 2.978237)])
def test_f_quantile_against_quadrature_oracle(d1, d2, frozen):
    got = sm.f_quantile(0.95, d1, d2)
    oracle = f_quantile_by_quadrature(0.95, d1, d2)
    assert got == pytest.approx(oracle, abs=1e-7)
    assert got == pytest.approx(frozen, abs=1e-4)


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
