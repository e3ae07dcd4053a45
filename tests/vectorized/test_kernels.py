"""Array-parameter distribution kernels against the scalar interface."""

import numpy as np
import pytest

from repro.dists import Gaussian
from repro.vectorized.kernels import (
    bernoulli_log_prob,
    bernoulli_sample,
    categorical_sample,
    gaussian_log_prob,
    gaussian_sample,
)


class TestArrayParameterKernels:
    def test_gaussian_per_particle_params(self, rng):
        mus = np.array([-10.0, 0.0, 10.0])
        draws = gaussian_sample(mus, 0.01, rng)
        assert np.allclose(draws, mus, atol=1.0)

    def test_gaussian_log_prob_matches_objects(self):
        mus = np.array([0.0, 1.0])
        variances = np.array([1.0, 4.0])
        got = gaussian_log_prob(0.5, mus, variances)
        expected = [Gaussian(m, v).log_pdf(0.5) for m, v in zip(mus, variances)]
        assert np.allclose(got, expected)

    def test_bernoulli_sample_rate(self, rng):
        p = np.full(20000, 0.25)
        draws = bernoulli_sample(p, rng)
        assert draws.dtype == bool
        assert draws.mean() == pytest.approx(0.25, abs=0.02)

    def test_bernoulli_log_prob_edge_probs(self):
        got = bernoulli_log_prob(np.array([True, False]), np.array([0.0, 1.0]))
        assert np.all(got == -np.inf)

    def test_categorical_sample_frequencies(self, rng):
        probs = np.broadcast_to(np.array([0.1, 0.6, 0.3]), (30000, 3))
        draws = categorical_sample(probs, rng)
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.allclose(freqs, [0.1, 0.6, 0.3], atol=0.02)

    def test_categorical_sample_row_parameters(self, rng):
        # each row puts all mass on a different category
        probs = np.eye(3)
        draws = categorical_sample(probs, rng)
        assert np.array_equal(draws, [0, 1, 2])
