"""Sharded execution: any worker count reproduces the serial posterior.

The determinism contract of the exec layer: with a fixed seed and a
fixed shard partition, the posterior is bit-for-bit identical under the
serial, thread, and persistent process executors at any worker count —
on the scalar and the vectorized substrate alike.
"""

from collections import namedtuple

import numpy as np
import pytest

from repro.bench.models import CoinModel, HmmModel, OutlierModel
from repro.errors import InferenceError
from repro.exec import (
    DEFAULT_SHARDS,
    PersistentProcessExecutor,
    SerialExecutor,
    ShardedPopulation,
)
from repro.inference import infer
from repro.vectorized import VectorizedModel

OBSERVATIONS = (0.5, 1.0, -0.3, 2.0, 0.8, -1.1)


def posterior_means(executor, *, method="pf", backend="scalar", n_particles=12,
                    seed=3, model_cls=HmmModel, n_shards=None, obs=OBSERVATIONS):
    engine = infer(
        model_cls(), n_particles=n_particles, method=method, seed=seed,
        backend=backend, executor=executor, n_shards=n_shards,
    )
    state = engine.init()
    means = []
    for y in obs:
        dist, state = engine.step(state, y)
        means.append(dist.mean())
    if hasattr(state, "release"):
        state.release()
    return means


class TestScalarEquivalence:
    @pytest.mark.parametrize("executor", ["threads:2", "threads:4"])
    def test_pf_threads_match_serial(self, executor):
        assert posterior_means(executor) == posterior_means("serial")

    def test_pf_processes_match_serial(self):
        assert posterior_means("processes-persistent:2") == posterior_means(
            "serial"
        )

    def test_acceptance_process4_equals_serial_on_fig2_hmm(self):
        """PersistentProcessExecutor(workers=4) == SerialExecutor."""
        serial = posterior_means(SerialExecutor())
        executor = PersistentProcessExecutor(workers=4)
        try:
            processes = posterior_means(executor)
        finally:
            executor.close()
        assert serial == processes

    @pytest.mark.parametrize("executor", ["threads:2", "processes-persistent:2"])
    def test_sds_matches_serial(self, executor):
        assert posterior_means(executor, method="sds") == posterior_means(
            "serial", method="sds"
        )

    def test_bds_threads_match_serial(self):
        assert posterior_means("threads:3", method="bds") == posterior_means(
            "serial", method="bds"
        )

    def test_importance_threads_match_serial(self):
        assert posterior_means("threads:2", method="importance") == posterior_means(
            "serial", method="importance"
        )

    def test_two_and_four_worker_schedules_identical(self):
        """Worker count is pure schedule: same shards, same posterior."""
        assert posterior_means("threads:2") == posterior_means("threads:4")


class TestVectorizedEquivalence:
    @pytest.mark.parametrize(
        "executor", ["threads:2", "threads:4", "processes-persistent:2"]
    )
    def test_pf_matches_serial(self, executor):
        assert posterior_means(executor, backend="vectorized") == posterior_means(
            "serial", backend="vectorized"
        )

    def test_kalman_sds_matches_serial(self):
        assert posterior_means(
            "threads:4", method="sds", backend="vectorized"
        ) == posterior_means("serial", method="sds", backend="vectorized")

    def test_outlier_sds_matches_serial(self):
        kwargs = dict(method="sds", backend="vectorized", model_cls=OutlierModel)
        assert posterior_means("threads:3", **kwargs) == posterior_means(
            "serial", **kwargs
        )

    def test_coin_sds_matches_serial(self):
        kwargs = dict(
            method="sds", backend="vectorized", model_cls=CoinModel,
            obs=(True, False, True, True),
        )
        assert posterior_means("threads:2", **kwargs) == posterior_means(
            "serial", **kwargs
        )


WalkState = namedtuple("WalkState", "x")


class NamedStateWalk(VectorizedModel):
    """A batched Gaussian random walk whose state is read by field name."""

    def init_batch(self, n, rng):
        return WalkState(np.zeros(n))

    def step_batch(self, state, yobs, n, rng):
        x = state.x + rng.normal(size=n)
        return x, WalkState(x), -0.5 * (float(yobs) - x) ** 2


class TestNamedTupleState:
    """A namedtuple batch state keeps its type through resampling, shard
    slicing and merging, and both shared-memory rings."""

    @pytest.mark.parametrize(
        "executor", [None, "threads:2", "processes-persistent:2"]
    )
    def test_state_fields_survive_every_instant(self, executor):
        kwargs = dict(backend="vectorized", model_cls=NamedStateWalk)
        means = posterior_means(executor, **kwargs)
        assert len(means) == len(OBSERVATIONS)
        assert np.all(np.isfinite(means))
        if executor is not None:
            assert means == posterior_means("serial", **kwargs)


class TestShardConfiguration:
    def test_explicit_executor_defaults_to_fixed_shards(self):
        engine = infer(HmmModel(), n_particles=12, executor="serial")
        assert engine.sharded
        assert engine.n_shards == DEFAULT_SHARDS
        assert isinstance(engine.init(), ShardedPopulation)

    def test_no_executor_keeps_sequential_population(self):
        engine = infer(HmmModel(), n_particles=12, seed=0)
        assert not engine.sharded
        assert isinstance(engine.init(), list)

    def test_n_shards_alone_enables_sharding(self):
        engine = infer(HmmModel(), n_particles=12, n_shards=3, seed=0)
        assert engine.sharded
        assert engine.init().n_shards == 3

    def test_shards_clamped_to_particles(self):
        engine = infer(HmmModel(), n_particles=2, executor="serial", seed=0)
        assert engine.n_shards == 2

    def test_zero_shards_rejected(self):
        with pytest.raises(InferenceError):
            infer(HmmModel(), n_particles=4, n_shards=0)

    def test_shard_count_changes_streams_not_law(self):
        """Different partitions draw different streams (both valid runs)."""
        two = posterior_means("serial", n_shards=2)
        four = posterior_means("serial", n_shards=4)
        assert two != four
        assert np.all(np.isfinite(two)) and np.all(np.isfinite(four))

    def test_sharded_seed_reproducible(self):
        assert posterior_means("threads:2", seed=11) == posterior_means(
            "threads:2", seed=11
        )
        assert posterior_means("threads:2", seed=11) != posterior_means(
            "threads:2", seed=12
        )

    def test_sharded_memory_words_positive(self):
        for backend in ("scalar", "vectorized"):
            engine = infer(
                HmmModel(), n_particles=8, seed=0, backend=backend,
                executor="serial",
            )
            state = engine.init()
            _, state = engine.step(state, 0.5)
            assert engine.memory_words(state) > 0

    def test_sharded_resample_threshold(self):
        """The barrier decision is global, so thresholds work sharded."""

        def run(executor):
            engine = infer(
                HmmModel(), n_particles=16, seed=5, executor=executor,
                resample_threshold=0.5,
            )
            state = engine.init()
            means = []
            for y in OBSERVATIONS:
                dist, state = engine.step(state, y)
                means.append(dist.mean())
            return means

        assert run("serial") == run("threads:2")

    def test_legacy_default_matches_pre_refactor_trace(self):
        """The executor plan with one implicit shard replays the classic
        sequential engine: this trace was recorded at the seed commit."""
        engine = infer(HmmModel(), n_particles=10, method="pf", seed=7)
        state = engine.init()
        means = []
        for y in (0.5, 1.0, 1.5):
            dist, state = engine.step(state, y)
            means.append(dist.mean())
        assert means == pytest.approx(
            [-0.07431347325072107, -0.1253667489399421, 0.23261039492768387]
        )


class TestBackendAutoFallback:
    def test_auto_uses_vectorized_when_available(self):
        from repro.vectorized import VectorizedBetaBernoulliSDS, VectorizedParticleFilter

        assert isinstance(
            infer(HmmModel(), method="pf", backend="auto"), VectorizedParticleFilter
        )
        assert isinstance(
            infer(CoinModel(), method="sds", backend="auto"),
            VectorizedBetaBernoulliSDS,
        )

    def test_auto_falls_back_to_scalar(self):
        from repro.bench.models import WalkModel
        from repro.inference import ParticleFilter, StreamingDelayedSampler

        assert isinstance(
            infer(WalkModel(), method="pf", backend="auto"), ParticleFilter
        )
        assert isinstance(
            infer(WalkModel(), method="sds", backend="auto"),
            StreamingDelayedSampler,
        )

    def test_auto_fallback_keeps_executor_config(self):
        from repro.bench.models import WalkModel

        engine = infer(
            WalkModel(), n_particles=8, method="pf", backend="auto",
            executor="threads:2", seed=0,
        )
        assert engine.sharded and engine.n_shards == DEFAULT_SHARDS
        state = engine.init()
        dist, _ = engine.step(state, None)
        assert np.isfinite(dist.mean())
