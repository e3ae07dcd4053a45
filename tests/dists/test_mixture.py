"""Mixture and TupleDist: the SDS output representations."""

import math

import numpy as np
import pytest

from repro.dists import Delta, Empirical, Gaussian, Mixture, TupleDist
from repro.errors import DistributionError


class TestMixture:
    def test_mean_is_weighted_average(self):
        mix = Mixture([Gaussian(0.0, 1.0), Gaussian(10.0, 1.0)], [0.25, 0.75])
        assert mix.mean() == pytest.approx(7.5)

    def test_variance_law_of_total_variance(self):
        mix = Mixture([Gaussian(0.0, 1.0), Gaussian(4.0, 2.0)], [0.5, 0.5])
        # E[Var] + Var[E] = 1.5 + 4
        assert mix.variance() == pytest.approx(1.5 + 4.0)

    def test_log_pdf_logsumexp(self):
        mix = Mixture([Gaussian(0.0, 1.0), Gaussian(5.0, 1.0)], [0.5, 0.5])
        expected = math.log(
            0.5 * Gaussian(0.0, 1.0).pdf(1.0) + 0.5 * Gaussian(5.0, 1.0).pdf(1.0)
        )
        assert mix.log_pdf(1.0) == pytest.approx(expected, rel=1e-10)

    def test_single_component_equals_component(self):
        mix = Mixture([Gaussian(2.0, 3.0)])
        assert mix.mean() == pytest.approx(2.0)
        assert mix.variance() == pytest.approx(3.0)
        assert mix.log_pdf(2.5) == pytest.approx(Gaussian(2.0, 3.0).log_pdf(2.5))

    def test_delta_components(self):
        mix = Mixture([Delta(1.0), Delta(3.0)], [0.5, 0.5])
        assert mix.mean() == pytest.approx(2.0)
        assert mix.variance() == pytest.approx(1.0)

    def test_weights_normalized(self):
        mix = Mixture([Delta(0.0), Delta(1.0)], [1.0, 3.0])
        assert np.allclose(mix.weights, [0.25, 0.75])

    def test_invalid(self):
        with pytest.raises(DistributionError):
            Mixture([])
        with pytest.raises(DistributionError):
            Mixture([Delta(0.0)], weights=[0.0])
        with pytest.raises(DistributionError):
            Mixture([Delta(0.0), Delta(1.0)], weights=[1.0])

    def test_sampling_draws_from_components(self, rng):
        mix = Mixture([Gaussian(-100.0, 1.0), Gaussian(100.0, 1.0)], [0.5, 0.5])
        samples = np.array([mix.sample(rng) for _ in range(2000)])
        frac_right = np.mean(samples > 0)
        assert frac_right == pytest.approx(0.5, abs=0.05)


class TestTupleDist:
    def test_componentwise_moments(self):
        dist = TupleDist([Gaussian(1.0, 1.0), Delta(2.0)])
        assert dist.mean() == (1.0, 2.0)
        assert dist.variance() == (1.0, 0.0)

    def test_log_pdf_sums_components(self):
        dist = TupleDist([Gaussian(0.0, 1.0), Gaussian(0.0, 1.0)])
        expected = 2 * Gaussian(0.0, 1.0).log_pdf(0.5)
        assert dist.log_pdf((0.5, 0.5)) == pytest.approx(expected)

    def test_arity_mismatch(self):
        dist = TupleDist([Delta(0.0)])
        with pytest.raises(DistributionError):
            dist.log_pdf((0.0, 1.0))

    def test_sample_is_tuple(self, rng):
        dist = TupleDist([Delta("a"), Delta(1)])
        assert dist.sample(rng) == ("a", 1)

    def test_empty_rejected(self):
        with pytest.raises(DistributionError):
            TupleDist([])

    def test_empirical_inside_tuple(self):
        dist = TupleDist([Empirical([1.0, 3.0]), Delta(0.0)])
        assert dist.mean()[0] == pytest.approx(2.0)


class TestNaNWeights:
    """NaN weights must become zero weight, loudly — `np.any(w < 0)` is
    silently False for NaN, so without the explicit check a NaN weight
    poisoned every downstream moment (PR 5 bugfix)."""

    def test_nan_weight_zeroed_with_warning(self):
        with pytest.warns(RuntimeWarning, match="NaN mixture weight"):
            dist = Mixture(
                [Gaussian(0.0, 1.0), Gaussian(10.0, 1.0)],
                weights=[1.0, float("nan")],
            )
        assert dist.weights.tolist() == [1.0, 0.0]
        assert dist.mean() == pytest.approx(0.0)

    def test_all_nan_weights_rejected(self):
        with pytest.warns(RuntimeWarning):
            with pytest.raises(DistributionError):
                Mixture(
                    [Delta(0.0), Delta(1.0)],
                    weights=[float("nan"), float("nan")],
                )

    def test_clean_weights_do_not_warn(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            dist = Mixture([Delta(0.0), Delta(1.0)], weights=[0.25, 0.75])
        assert dist.mean() == pytest.approx(0.75)


class TestNonFiniteWeightTotals:
    """The weight total is checked for infinity: an infinite weight made
    ``inf / inf`` NaN weights, and finite weights whose sum overflowed
    all divided to zero."""

    def test_infinite_weight_rejected(self):
        with pytest.raises(DistributionError, match="finite"):
            Mixture([Delta(0.0), Delta(1.0)], weights=[math.inf, 1.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_sum_rescaled(self):
        dist = Mixture([Delta(0.0), Delta(1.0)], weights=[1.5e308, 5e307])
        assert dist.weights.tolist() == pytest.approx([0.75, 0.25])
        assert dist.mean() == pytest.approx(0.25)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_equal_huge_weights_are_uniform(self):
        dist = Mixture([Delta(0.0), Delta(1.0)], weights=[1e308, 1e308])
        assert dist.weights.tolist() == [0.5, 0.5]
        assert dist.mean() == 0.5
