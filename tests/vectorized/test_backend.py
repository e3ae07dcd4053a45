"""The ``backend=`` parameter of ``infer`` and the fallback policy."""

import numpy as np
import pytest

from repro.bench.models import (
    CoinModel,
    HmmModel,
    KalmanModel,
    OutlierModel,
    WalkModel,
)
from repro.errors import InferenceError
from repro.inference import BACKENDS, infer
from repro.inference.engine import (
    BoundedDelayedSampler,
    ParticleFilter,
    StreamingDelayedSampler,
)
from repro.vectorized import (
    VectorizedBetaBernoulliSDS,
    VectorizedGaussianChainSDS,
    VectorizedKalman,
    VectorizedKalmanSDS,
    VectorizedModel,
    VectorizedParticleFilter,
    register_vectorizer,
    vectorize_model,
)
from repro.vectorized.models import VECTORIZED_MODELS


class TestBackendSelection:
    def test_default_backend_is_scalar(self):
        assert isinstance(infer(HmmModel()), ParticleFilter)
        assert not isinstance(infer(HmmModel()), VectorizedParticleFilter)

    def test_unknown_backend_rejected(self):
        with pytest.raises(InferenceError):
            infer(HmmModel(), backend="gpu")

    def test_backends_constant(self):
        assert set(BACKENDS) == {"scalar", "vectorized", "auto"}

    @pytest.mark.parametrize("model_cls", [KalmanModel, HmmModel, CoinModel, OutlierModel])
    def test_pf_vectorizes_registered_models(self, model_cls):
        engine = infer(model_cls(), n_particles=4, method="pf", backend="vectorized")
        assert isinstance(engine, VectorizedParticleFilter)

    def test_sds_vectorizes_conjugate_chains_only(self):
        assert isinstance(
            infer(KalmanModel(), method="sds", backend="vectorized"),
            VectorizedKalmanSDS,
        )
        assert isinstance(
            infer(CoinModel(), method="sds", backend="vectorized"),
            VectorizedBetaBernoulliSDS,
        )
        # The Outlier model rides the generic batched DS graph since
        # PR 5 (VectorizedOutlierSDS survives only as the test oracle
        # in outlier_oracle.py).
        outlier_engine = infer(OutlierModel(), method="sds", backend="vectorized")
        assert isinstance(outlier_engine, VectorizedGaussianChainSDS)
        # no closed-form SDS engine registered: scalar fallback
        assert isinstance(
            infer(WalkModel(), method="sds", backend="vectorized"),
            StreamingDelayedSampler,
        )

    def test_auto_behaves_like_vectorized(self):
        assert isinstance(
            infer(HmmModel(), method="pf", backend="auto"), VectorizedParticleFilter
        )
        assert isinstance(
            infer(WalkModel(), method="pf", backend="auto"), ParticleFilter
        )


class TestFallback:
    def test_unvectorizable_model_falls_back(self):
        engine = infer(WalkModel(), n_particles=4, method="pf", backend="vectorized")
        assert isinstance(engine, ParticleFilter)

    def test_chain_bds_vectorizes(self):
        """Gaussian-chain models route bds to the array-native graph engine."""
        engine = infer(HmmModel(), n_particles=4, method="bds", backend="vectorized")
        assert isinstance(engine, VectorizedGaussianChainSDS)
        assert engine.mode == "bds"

    def test_unvectorizable_method_falls_back(self):
        # WalkModel is not a registered chain; "ds" has no batched engine.
        engine = infer(WalkModel(), n_particles=4, method="bds", backend="vectorized")
        assert isinstance(engine, BoundedDelayedSampler)
        engine = infer(HmmModel(), n_particles=4, method="ds", backend="vectorized")
        assert not isinstance(engine, VectorizedGaussianChainSDS)

    def test_fallback_engine_still_runs(self):
        engine = infer(WalkModel(), n_particles=4, method="pf", backend="vectorized", seed=0)
        dist, _ = engine.step(engine.init(), None)
        assert np.isfinite(dist.mean())

    @pytest.mark.parametrize("backend", ["vectorized", "auto"])
    def test_direct_vectorized_model_accepted(self, backend):
        engine = infer(
            VectorizedKalman(), n_particles=4, method="pf", backend=backend, seed=0
        )
        assert isinstance(engine, VectorizedParticleFilter)
        dist, _ = engine.step(engine.init(), 0.5)
        assert np.isfinite(dist.mean())


class TestVectorizeModel:
    def test_maps_scalar_parameters(self):
        model = KalmanModel(prior_mean=2.0, prior_var=5.0, motion_var=0.5, obs_var=0.1)
        batched = vectorize_model(model)
        assert isinstance(batched, VectorizedKalman)
        assert batched.prior_mean == 2.0
        assert batched.prior_var == 5.0
        assert batched.motion_var == 0.5
        assert batched.obs_var == 0.1

    def test_unknown_model_returns_none(self):
        assert vectorize_model(WalkModel()) is None

    def test_subclass_does_not_inherit_vectorization(self):
        class TweakedKalman(KalmanModel):
            def step(self, state, yobs, ctx):
                return super().step(state, yobs, ctx)

        assert vectorize_model(TweakedKalman()) is None

    def test_register_vectorizer_extends_registry(self):
        class MyModel(WalkModel):
            pass

        class MyVectorized(VectorizedModel):
            def init_batch(self, n, rng):
                return None

            def step_batch(self, state, inp, n, rng):
                x = rng.normal(0.0, 1.0, size=n) if state is None else state
                return x, x, np.zeros(n)

        register_vectorizer(MyModel, lambda m: MyVectorized())
        try:
            engine = infer(MyModel(), n_particles=3, method="pf", backend="vectorized", seed=0)
            assert isinstance(engine, VectorizedParticleFilter)
            dist, _ = engine.step(engine.init(), None)
            assert np.isfinite(dist.mean())
        finally:
            VECTORIZED_MODELS.pop(MyModel, None)

    def test_vectorized_pf_rejects_unknown_model_directly(self):
        with pytest.raises(InferenceError):
            VectorizedParticleFilter(WalkModel(), n_particles=2)
