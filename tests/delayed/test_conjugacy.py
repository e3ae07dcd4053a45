"""Conjugacy relations: closed-form marginals and posteriors.

Each family is checked against an independent oracle: either a
hand-derived formula, scipy, or a numerical Bayes computation over a
grid.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from repro.delayed.conjugacy import (
    AffineGaussian,
    BetaBernoulli,
    BetaBinomial,
    DirichletCategorical,
    GammaPoisson,
    GaussianProjection,
    MvAffineGaussian,
    _NegativeBinomialMarginal,
)
from repro.dists import Beta, Dirichlet, Gamma, Gaussian, MvGaussian
from repro.errors import DistributionError, GraphError


class TestAffineGaussian:
    def test_marginalize(self):
        cond = AffineGaussian(2.0, 1.0, 0.5)
        marginal = cond.marginalize(Gaussian(3.0, 4.0))
        assert marginal.mu == pytest.approx(7.0)
        assert marginal.var == pytest.approx(16.5)

    def test_posterior_identity_observation(self):
        # y | x ~ N(x, 1), x ~ N(0, 100): scalar Kalman update
        cond = AffineGaussian(1.0, 0.0, 1.0)
        post = cond.posterior(Gaussian(0.0, 100.0), 4.0)
        oracle = Gaussian(0.0, 100.0).posterior_given_obs(4.0, 1.0)
        assert post.mu == pytest.approx(oracle.mu)
        assert post.var == pytest.approx(oracle.var)

    def test_posterior_vs_numerical_bayes(self):
        cond = AffineGaussian(1.5, -0.5, 2.0)
        prior = Gaussian(1.0, 3.0)
        obs = 2.5
        post = cond.posterior(prior, obs)
        # numerical posterior over a grid
        xs = np.linspace(-15, 17, 40001)
        log_post = np.array(
            [prior.log_pdf(x) + cond.at_parent_value(x).log_pdf(obs) for x in xs]
        )
        weights = np.exp(log_post - log_post.max())
        weights /= weights.sum()
        mean = float(np.dot(xs, weights))
        var = float(np.dot((xs - mean) ** 2, weights))
        assert post.mu == pytest.approx(mean, abs=1e-3)
        assert post.var == pytest.approx(var, rel=1e-3)

    def test_at_parent_value(self):
        cond = AffineGaussian(2.0, 1.0, 0.5)
        dist = cond.at_parent_value(3.0)
        assert dist.mu == 7.0
        assert dist.var == 0.5

    def test_invalid_variance(self):
        with pytest.raises(GraphError):
            AffineGaussian(1.0, 0.0, 0.0)

    def test_wrong_parent_type(self):
        with pytest.raises(GraphError):
            AffineGaussian(1.0, 0.0, 1.0).marginalize(Beta(1.0, 1.0))

    @given(
        a=st.floats(min_value=-5, max_value=5).filter(lambda v: abs(v) > 1e-2),
        b=st.floats(min_value=-5, max_value=5),
        var=st.floats(min_value=1e-2, max_value=10),
        mu0=st.floats(min_value=-5, max_value=5),
        var0=st.floats(min_value=1e-2, max_value=10),
        obs=st.floats(min_value=-10, max_value=10),
    )
    def test_posterior_variance_never_grows(self, a, b, var, mu0, var0, obs):
        cond = AffineGaussian(a, b, var)
        post = cond.posterior(Gaussian(mu0, var0), obs)
        assert post.var <= var0 + 1e-9

    @given(
        a=st.floats(min_value=-5, max_value=5).filter(lambda v: abs(v) > 1e-2),
        b=st.floats(min_value=-5, max_value=5),
        var=st.floats(min_value=1e-2, max_value=10),
        mu0=st.floats(min_value=-5, max_value=5),
        var0=st.floats(min_value=1e-2, max_value=10),
    )
    def test_marginal_consistency(self, a, b, var, mu0, var0):
        """Marginal moments match the law of total expectation/variance."""
        cond = AffineGaussian(a, b, var)
        marginal = cond.marginalize(Gaussian(mu0, var0))
        assert marginal.mu == pytest.approx(a * mu0 + b, rel=1e-9, abs=1e-9)
        assert marginal.var == pytest.approx(a * a * var0 + var, rel=1e-9)


class TestMvAffineGaussian:
    def test_matches_kalman_filter_update(self):
        # textbook Kalman: x' = F x + w, y = H x' + v
        f = np.array([[1.0, 1.0], [0.0, 1.0]])
        q = np.diag([0.1, 0.1])
        prior = MvGaussian([0.0, 1.0], np.diag([1.0, 1.0]))
        predict = MvAffineGaussian(f, np.zeros(2), q)
        predicted = predict.marginalize(prior)
        assert np.allclose(predicted.mu, f @ prior.mu)
        assert np.allclose(predicted.cov, f @ prior.cov @ f.T + q)

        h = np.array([[1.0, 0.0]])
        r = np.array([[0.5]])
        observe = MvAffineGaussian(h, np.zeros(1), r)
        post = observe.posterior(predicted, [1.3])
        # classic Kalman gain formula
        s = h @ predicted.cov @ h.T + r
        k = predicted.cov @ h.T @ np.linalg.inv(s)
        expected_mu = predicted.mu + (k @ ([1.3] - h @ predicted.mu))
        expected_cov = (np.eye(2) - k @ h) @ predicted.cov
        assert np.allclose(post.mu, expected_mu)
        assert np.allclose(post.cov, expected_cov)

    def test_at_parent_value(self):
        cond = MvAffineGaussian(np.eye(2), [1.0, 2.0], np.eye(2))
        dist = cond.at_parent_value([1.0, 1.0])
        assert np.allclose(dist.mu, [2.0, 3.0])

    def test_shape_validation(self):
        with pytest.raises(GraphError):
            MvAffineGaussian(np.zeros(2), np.zeros(2), np.eye(2))
        with pytest.raises(GraphError):
            MvAffineGaussian(np.eye(2), np.zeros(2), np.eye(3))


class TestGaussianProjection:
    def test_marginalize_is_scalar(self):
        parent = MvGaussian([1.0, 2.0], np.diag([4.0, 9.0]))
        cond = GaussianProjection([1.0, 0.0], 0.5, 1.0)
        marginal = cond.marginalize(parent)
        assert isinstance(marginal, Gaussian)
        assert marginal.mu == pytest.approx(1.5)
        assert marginal.var == pytest.approx(5.0)

    def test_posterior_updates_projected_component(self):
        parent = MvGaussian([0.0, 0.0], np.diag([100.0, 100.0]))
        cond = GaussianProjection([1.0, 0.0], 0.0, 1.0)
        post = cond.posterior(parent, 5.0)
        assert post.mu[0] == pytest.approx(5.0, abs=0.1)
        assert post.mu[1] == pytest.approx(0.0)  # uncorrelated component
        assert post.cov[0, 0] < 2.0
        assert post.cov[1, 1] == pytest.approx(100.0)


class TestBetaBernoulli:
    def test_marginal_is_predictive(self):
        marginal = BetaBernoulli().marginalize(Beta(3.0, 1.0))
        assert marginal.p == pytest.approx(0.75)

    def test_posterior_counts(self):
        post = BetaBernoulli().posterior(Beta(1.0, 1.0), True)
        assert (post.alpha, post.beta) == (2.0, 1.0)
        post = BetaBernoulli().posterior(Beta(1.0, 1.0), False)
        assert (post.alpha, post.beta) == (1.0, 2.0)

    def test_at_parent_value(self):
        assert BetaBernoulli().at_parent_value(0.3).p == pytest.approx(0.3)

    @given(
        alpha=st.floats(min_value=0.5, max_value=50),
        beta=st.floats(min_value=0.5, max_value=50),
        flips=st.lists(st.booleans(), min_size=0, max_size=30),
    )
    def test_sequential_equals_batch(self, alpha, beta, flips):
        cond = BetaBernoulli()
        current = Beta(alpha, beta)
        for flip in flips:
            current = cond.posterior(current, flip)
        heads = sum(flips)
        assert current.alpha == pytest.approx(alpha + heads)
        assert current.beta == pytest.approx(beta + len(flips) - heads)


class TestBetaBinomial:
    def test_marginal_matches_scipy(self):
        marginal = BetaBinomial(10).marginalize(Beta(2.0, 3.0))
        for k in range(11):
            expected = stats.betabinom(10, 2.0, 3.0).logpmf(k)
            assert marginal.log_pdf(k) == pytest.approx(expected, rel=1e-9)

    def test_posterior(self):
        post = BetaBinomial(10).posterior(Beta(1.0, 1.0), 7)
        assert (post.alpha, post.beta) == (8.0, 4.0)

    def test_marginal_moments(self):
        marginal = BetaBinomial(10).marginalize(Beta(2.0, 3.0))
        oracle = stats.betabinom(10, 2.0, 3.0)
        assert marginal.mean() == pytest.approx(oracle.mean())
        assert marginal.variance() == pytest.approx(oracle.var())


class TestGammaPoisson:
    def test_marginal_is_negative_binomial(self):
        marginal = GammaPoisson().marginalize(Gamma(3.0, 2.0))
        # scipy NB: n = shape, p = rate/(rate+1)
        oracle = stats.nbinom(3.0, 2.0 / 3.0)
        for k in range(15):
            assert marginal.log_pdf(k) == pytest.approx(oracle.logpmf(k), rel=1e-9)

    def test_posterior(self):
        post = GammaPoisson().posterior(Gamma(3.0, 2.0), 5)
        assert post.shape == 8.0
        assert post.rate == 3.0

    def test_at_parent_value(self):
        assert GammaPoisson().at_parent_value(4.0).lam == 4.0

    @pytest.mark.parametrize("shape, rate", [(1.0, math.nan), (-1.0, 2.0)])
    def test_marginal_rejects_invalid_parameters(self, shape, rate):
        # A NaN rate would give NaN log-densities, a negative shape a
        # bare math domain error; both fail at construction instead.
        with pytest.raises(DistributionError):
            _NegativeBinomialMarginal(shape, rate)


class TestDirichletCategorical:
    def test_marginal_is_mean(self):
        marginal = DirichletCategorical().marginalize(Dirichlet([1.0, 3.0]))
        assert np.allclose(marginal.probs, [0.25, 0.75])

    def test_posterior_increments_count(self):
        post = DirichletCategorical().posterior(Dirichlet([1.0, 1.0, 1.0]), 2)
        assert np.allclose(post.alpha, [1.0, 1.0, 2.0])

    def test_at_parent_value(self):
        dist = DirichletCategorical().at_parent_value([0.2, 0.8])
        assert np.allclose(dist.probs, [0.2, 0.8])
