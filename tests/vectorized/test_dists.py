"""Array-backed posterior distributions vs their object-per-particle twins."""

import math
import pickle

import numpy as np
import pytest

from repro.dists import Beta, Empirical, Gamma, Gaussian, Mixture
from repro.errors import DistributionError
from repro.vectorized import (
    ArrayEmpirical,
    BetaMixtureArray,
    CountMixtureArray,
    DirichletMixtureArray,
    GammaMixtureArray,
    GaussianMixtureArray,
    MvGaussianMixtureArray,
)
from repro.vectorized import dists as vdists
from repro.vectorized import kernels


class TestArrayEmpirical:
    def test_matches_empirical_moments(self):
        values = [1.0, 2.0, 4.0]
        weights = [0.2, 0.3, 0.5]
        ref = Empirical(values, weights)
        arr = ArrayEmpirical(np.array(values), np.array(weights))
        assert arr.mean() == pytest.approx(ref.mean())
        assert arr.variance() == pytest.approx(ref.variance())

    def test_log_pdf_sums_matching_mass(self):
        arr = ArrayEmpirical(np.array([1.0, 2.0, 1.0]), np.array([0.25, 0.5, 0.25]))
        assert arr.log_pdf(1.0) == pytest.approx(np.log(0.5))
        assert arr.log_pdf(7.0) == -np.inf

    def test_uniform_weights_default(self):
        arr = ArrayEmpirical(np.array([0.0, 10.0]))
        assert arr.mean() == pytest.approx(5.0)

    def test_vector_support(self):
        values = np.array([[0.0, 0.0], [2.0, 4.0]])
        arr = ArrayEmpirical(values, np.array([0.5, 0.5]))
        assert np.allclose(arr.mean(), [1.0, 2.0])
        assert np.allclose(arr.variance(), [1.0, 4.0])
        assert arr.log_pdf([2.0, 4.0]) == pytest.approx(np.log(0.5))

    def test_sample_returns_support_value(self, rng):
        arr = ArrayEmpirical(np.array([3.0, 9.0]), np.array([1.0, 0.0]))
        assert arr.sample(rng) == 3.0

    def test_cdf_matches_empirical(self):
        from repro.dists.stats import cdf, probability

        values = [1.0, 2.0, 4.0]
        weights = [0.2, 0.3, 0.5]
        ref = Empirical(values, weights)
        arr = ArrayEmpirical(np.array(values), np.array(weights))
        for x in (0.0, 1.5, 2.0, 5.0):
            assert cdf(arr, x) == pytest.approx(cdf(ref, x))
        assert probability(arr, 2.0, 0.5) == pytest.approx(0.3)

    def test_does_not_freeze_caller_array(self):
        values = np.array([1.0, 2.0])
        ArrayEmpirical(values)
        values[0] = 5.0  # caller's array stays writeable

    def test_empty_rejected(self):
        with pytest.raises(DistributionError):
            ArrayEmpirical(np.array([]))

    def test_mismatched_weights_rejected(self):
        with pytest.raises(DistributionError):
            ArrayEmpirical(np.array([1.0, 2.0]), np.array([1.0]))


class TestGaussianMixtureArray:
    def test_matches_mixture_of_gaussians(self):
        mus = np.array([-1.0, 0.5, 2.0])
        variances = np.array([1.0, 0.5, 2.0])
        weights = np.array([0.2, 0.3, 0.5])
        ref = Mixture([Gaussian(m, v) for m, v in zip(mus, variances)], weights)
        arr = GaussianMixtureArray(mus, variances, weights)
        assert arr.mean() == pytest.approx(ref.mean())
        assert arr.variance() == pytest.approx(ref.variance())
        for x in (-2.0, 0.0, 1.7):
            assert arr.log_pdf(x) == pytest.approx(ref.log_pdf(x))

    def test_single_component_is_gaussian(self):
        arr = GaussianMixtureArray([1.0], [2.0])
        ref = Gaussian(1.0, 2.0)
        assert arr.mean() == pytest.approx(ref.mean())
        assert arr.variance() == pytest.approx(ref.variance())
        assert arr.log_pdf(0.3) == pytest.approx(ref.log_pdf(0.3))

    def test_component_accessor(self):
        arr = GaussianMixtureArray([1.0, 2.0], [3.0, 4.0])
        assert arr.component(1) == Gaussian(2.0, 4.0)

    def test_sample_moments(self, rng):
        arr = GaussianMixtureArray([0.0, 4.0], [1.0, 1.0], [0.5, 0.5])
        draws = np.array([arr.sample(rng) for _ in range(4000)])
        assert draws.mean() == pytest.approx(2.0, abs=0.15)

    def test_cdf_matches_mixture(self):
        from repro.dists.stats import cdf

        mus = np.array([-1.0, 2.0])
        variances = np.array([1.0, 0.5])
        weights = np.array([0.4, 0.6])
        ref = Mixture([Gaussian(m, v) for m, v in zip(mus, variances)], weights)
        arr = GaussianMixtureArray(mus, variances, weights)
        for x in (-2.0, 0.0, 2.5):
            assert cdf(arr, x) == pytest.approx(cdf(ref, x))

    def test_does_not_freeze_caller_arrays(self):
        mus = np.array([0.0, 1.0])
        variances = np.array([1.0, 1.0])
        GaussianMixtureArray(mus, variances)
        mus[0] = 9.0  # caller's arrays stay writeable
        variances[0] = 9.0

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(DistributionError):
            GaussianMixtureArray([0.0], [0.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DistributionError):
            GaussianMixtureArray([0.0, 1.0], [1.0])


class TestNaNWeights:
    """The array mixtures share the Mixture NaN policy (PR 5 bugfix):
    a NaN weight becomes zero weight for that component, with a
    RuntimeWarning — `np.any(weights < 0)` is False for NaN, so the
    constructors used to accept them silently."""

    def test_gaussian_mixture_array_zeroes_nan(self):
        with pytest.warns(RuntimeWarning, match="NaN mixture weight"):
            dist = GaussianMixtureArray(
                [0.0, 10.0], [1.0, 1.0], weights=[1.0, np.nan]
            )
        assert dist.weights.tolist() == [1.0, 0.0]
        assert dist.mean() == pytest.approx(0.0)

    def test_beta_mixture_array_zeroes_nan(self):
        from repro.vectorized import BetaMixtureArray

        with pytest.warns(RuntimeWarning, match="NaN mixture weight"):
            dist = BetaMixtureArray([2.0, 8.0], [2.0, 2.0], weights=[np.nan, 1.0])
        assert dist.weights.tolist() == [0.0, 1.0]
        assert dist.mean() == pytest.approx(0.8)

    def test_mv_gaussian_mixture_array_zeroes_nan(self):
        from repro.vectorized import MvGaussianMixtureArray

        with pytest.warns(RuntimeWarning, match="NaN mixture weight"):
            dist = MvGaussianMixtureArray(
                [[0.0, 0.0], [4.0, 4.0]], np.eye(2), weights=[3.0, np.nan]
            )
        assert dist.mean() == pytest.approx([0.0, 0.0])

    def test_array_empirical_zeroes_nan(self):
        with pytest.warns(RuntimeWarning, match="NaN mixture weight"):
            dist = ArrayEmpirical([1.0, 5.0], weights=[np.nan, 2.0])
        assert dist.mean() == pytest.approx(5.0)

    def test_all_nan_rejected(self):
        with pytest.warns(RuntimeWarning):
            with pytest.raises(DistributionError):
                GaussianMixtureArray([0.0], [1.0], weights=[np.nan])


#: each array-backed output with two components; equal weights give the
#: expected mean
TWO_COMPONENT_ARRAYS = {
    "empirical": (lambda w: ArrayEmpirical([0.0, 1.0], w), 0.5),
    "gaussian": (lambda w: GaussianMixtureArray([0.0, 1.0], [1.0, 1.0], w), 0.5),
    "mv_gaussian": (
        lambda w: MvGaussianMixtureArray([[0.0, 0.0], [1.0, 1.0]], np.eye(2), w),
        [0.5, 0.5],
    ),
    "beta": (lambda w: BetaMixtureArray([1.0, 3.0], [3.0, 1.0], w), 0.5),
    "gamma": (lambda w: GammaMixtureArray([1.0, 3.0], [1.0, 1.0], w), 2.0),
    "dirichlet": (
        lambda w: DirichletMixtureArray([[1.0, 3.0], [3.0, 1.0]], w),
        [0.5, 0.5],
    ),
    "count": (lambda w: CountMixtureArray([1.0, 3.0], None, w), 2.0),
}


class TestNonFiniteWeightTotals:
    """An infinite weight gave ``inf / inf`` NaN weights, and finite
    weights whose sum overflowed all divided to zero (a Beta mixture's
    mean read 0.0 instead of 0.5)."""

    @pytest.mark.parametrize("kind", sorted(TWO_COMPONENT_ARRAYS))
    def test_infinite_weight_rejected(self, kind):
        build, _ = TWO_COMPONENT_ARRAYS[kind]
        with pytest.raises(DistributionError, match="finite"):
            build([math.inf, 1.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("kind", sorted(TWO_COMPONENT_ARRAYS))
    def test_overflowing_sum_rescaled(self, kind):
        build, mean = TWO_COMPONENT_ARRAYS[kind]
        dist = build([1e308, 1e308])
        assert dist.weights.tolist() == [0.5, 0.5]
        assert np.asarray(dist.mean()).tolist() == pytest.approx(mean)


#: distinct components with unequal weights, and the scalar Mixture of
#: the same components that the array form must score like
BETA_PARAMS = ([0.7, 2.0, 5.5, 12.0], [1.3, 4.0, 2.5, 3.0])
GAMMA_PARAMS = ([0.8, 2.0, 4.5, 9.0], [0.5, 1.0, 3.0, 2.5])
MIXTURE_WEIGHTS = [0.1, 0.2, 0.3, 0.4]
DEFERRED = {
    "beta": (
        lambda: BetaMixtureArray(*BETA_PARAMS, MIXTURE_WEIGHTS),
        lambda: Mixture([Beta(a, b) for a, b in zip(*BETA_PARAMS)], MIXTURE_WEIGHTS),
        (0.02, 0.3, 0.5, 0.77, 0.99),
    ),
    "gamma": (
        lambda: GammaMixtureArray(*GAMMA_PARAMS, MIXTURE_WEIGHTS),
        lambda: Mixture([Gamma(k, r) for k, r in zip(*GAMMA_PARAMS)], MIXTURE_WEIGHTS),
        (0.05, 0.9, 2.0, 4.7, 11.0),
    ),
}


class TestDeferredLogNormalizer:
    """The Beta and Gamma arrays leave their lgamma normalizer to the
    first ``log_pdf``: a posterior that is only asked for its moments
    never runs the Python-level lgamma loop."""

    @pytest.fixture
    def lgamma_calls(self, monkeypatch):
        """Count lgamma evaluations, per element and per array call."""
        counts = {"math": 0, "array": 0}
        real_math, real_array = math.lgamma, kernels._lgamma

        def math_lgamma(x):
            counts["math"] += 1
            return real_math(x)

        def array_lgamma(x):
            counts["array"] += 1
            return real_array(x)

        monkeypatch.setattr(math, "lgamma", math_lgamma)
        monkeypatch.setattr(vdists, "_lgamma", array_lgamma, raising=False)
        return counts

    @pytest.mark.parametrize("kind", sorted(DEFERRED))
    def test_building_evaluates_no_lgamma(self, kind, lgamma_calls):
        build, _, _ = DEFERRED[kind]
        dist = build()
        dist.mean()
        dist.variance()
        assert lgamma_calls == {"math": 0, "array": 0}

    @pytest.mark.parametrize("kind", sorted(DEFERRED))
    def test_normalizer_computed_once(self, kind, lgamma_calls):
        build, _, points = DEFERRED[kind]
        dist = build()
        dist.log_pdf(points[0])
        first = lgamma_calls["array"]
        assert first > 0
        for x in points:
            dist.log_pdf(x)
        assert lgamma_calls["array"] == first

    @pytest.mark.parametrize("kind", sorted(DEFERRED))
    def test_log_pdf_matches_scalar_mixture(self, kind):
        build, reference, points = DEFERRED[kind]
        dist, ref = build(), reference()
        for x in points:
            assert dist.log_pdf(x) == pytest.approx(ref.log_pdf(x), rel=1e-12)
        assert dist.log_pdf(-1.0) == -math.inf

    @pytest.mark.parametrize("kind", sorted(DEFERRED))
    def test_log_pdf_after_pickle_round_trip(self, kind, lgamma_calls):
        build, reference, points = DEFERRED[kind]
        dist, ref = build(), reference()
        unqueried = pickle.loads(pickle.dumps(dist))
        dist.log_pdf(points[0])
        queried = pickle.loads(pickle.dumps(dist))
        computed = lgamma_calls["array"]
        for x in points:
            assert queried.log_pdf(x) == pytest.approx(ref.log_pdf(x), rel=1e-12)
        # the normalizer travelled with the queried copy
        assert lgamma_calls["array"] == computed
        for x in points:
            assert unqueried.log_pdf(x) == pytest.approx(ref.log_pdf(x), rel=1e-12)
