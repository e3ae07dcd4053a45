"""Categorical, Dirichlet, and Empirical distributions."""

import math

import numpy as np
import pytest

from repro.dists import Categorical, Dirichlet, Empirical
from repro.errors import DistributionError


class TestCategorical:
    def test_normalizes_probs(self):
        dist = Categorical([2.0, 2.0, 4.0])
        assert np.allclose(dist.probs, [0.25, 0.25, 0.5])

    def test_log_pdf(self):
        dist = Categorical([0.2, 0.8])
        assert dist.log_pdf(1) == pytest.approx(math.log(0.8))
        assert dist.log_pdf(2) == -math.inf

    def test_zero_prob_category(self):
        dist = Categorical([0.0, 1.0])
        assert dist.log_pdf(0) == -math.inf

    def test_invalid(self):
        with pytest.raises(DistributionError):
            Categorical([])
        with pytest.raises(DistributionError):
            Categorical([-0.5, 1.5])
        with pytest.raises(DistributionError):
            Categorical([0.0, 0.0])

    def test_sampling_frequencies(self, rng):
        dist = Categorical([0.5, 0.3, 0.2])
        samples = [dist.sample(rng) for _ in range(10000)]
        counts = np.bincount(samples, minlength=3) / len(samples)
        assert np.allclose(counts, [0.5, 0.3, 0.2], atol=0.02)


class TestDirichlet:
    def test_mean(self):
        dist = Dirichlet([1.0, 2.0, 3.0])
        assert np.allclose(dist.mean(), [1 / 6, 2 / 6, 3 / 6])

    def test_with_count_conjugate_update(self):
        posterior = Dirichlet([1.0, 1.0]).with_count(0)
        assert np.allclose(posterior.alpha, [2.0, 1.0])

    def test_log_pdf_on_simplex(self):
        from scipy import stats

        dist = Dirichlet([2.0, 3.0, 4.0])
        x = np.array([0.2, 0.3, 0.5])
        assert dist.log_pdf(x) == pytest.approx(
            stats.dirichlet([2.0, 3.0, 4.0]).logpdf(x), rel=1e-10
        )

    def test_log_pdf_off_simplex(self):
        dist = Dirichlet([1.0, 1.0])
        assert dist.log_pdf([0.7, 0.7]) == -math.inf

    def test_invalid(self):
        with pytest.raises(DistributionError):
            Dirichlet([1.0])
        with pytest.raises(DistributionError):
            Dirichlet([1.0, 0.0])

    def test_samples_on_simplex(self, rng):
        dist = Dirichlet([5.0, 5.0, 5.0])
        for _ in range(50):
            s = dist.sample(rng)
            assert s.sum() == pytest.approx(1.0)
            assert np.all(s >= 0)


class TestEmpirical:
    def test_uniform_default_weights(self):
        dist = Empirical([1.0, 2.0, 3.0])
        assert np.allclose(dist.weights, [1 / 3] * 3)

    def test_weighted_mean_variance(self):
        dist = Empirical([0.0, 10.0], weights=[0.75, 0.25])
        assert dist.mean() == pytest.approx(2.5)
        assert dist.variance() == pytest.approx(0.75 * 2.5**2 + 0.25 * 7.5**2)

    def test_log_pdf_accumulates_duplicates(self):
        dist = Empirical([1, 1, 2], weights=[0.3, 0.3, 0.4])
        assert dist.log_pdf(1) == pytest.approx(math.log(0.6))

    def test_vector_support(self):
        dist = Empirical([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        mean = dist.mean()
        assert np.allclose(mean, [0.5, 0.5])

    def test_invalid(self):
        with pytest.raises(DistributionError):
            Empirical([])
        with pytest.raises(DistributionError):
            Empirical([1.0], weights=[0.0])
        with pytest.raises(DistributionError):
            Empirical([1.0, 2.0], weights=[1.0])

    def test_weights_renormalized(self):
        dist = Empirical([1, 2], weights=[2.0, 6.0])
        assert np.allclose(dist.weights, [0.25, 0.75])

    def test_sampling_respects_weights(self, rng):
        dist = Empirical(["a", "b"], weights=[0.9, 0.1])
        freq = np.mean([dist.sample(rng) == "a" for _ in range(5000)])
        assert freq == pytest.approx(0.9, abs=0.02)


class TestNonFiniteWeightTotals:
    """An infinite weight is rejected; finite weights whose sum
    overflows are scaled by their maximum instead of dividing to zero."""

    def test_empirical_infinite_weight_rejected(self):
        with pytest.raises(DistributionError, match="finite"):
            Empirical([0.0, 1.0], weights=[math.inf, 1.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_empirical_overflowing_sum_rescaled(self):
        dist = Empirical([0.0, 1.0], weights=[1e308, 1e308])
        assert dist.weights.tolist() == [0.5, 0.5]
        assert dist.mean() == 0.5

    def test_categorical_infinite_prob_rejected(self):
        with pytest.raises(DistributionError, match="finite"):
            Categorical([1.0, math.inf])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_categorical_overflowing_sum_rescaled(self):
        dist = Categorical([1e308, 1e308, 0.0])
        assert dist.probs.tolist() == [0.5, 0.5, 0.0]
        assert dist.mean() == 0.5
