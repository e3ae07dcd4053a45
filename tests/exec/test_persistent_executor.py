"""Worker-resident execution: equivalence, exchange plan, crash recovery.

The persistent executor's contract (ISSUE 3): shards stay resident in
long-lived workers, yet at a fixed seed the posterior is bit-for-bit
identical to the serial executor for any worker count — and a worker
that dies mid-stream is rebuilt from the coordinator's checkpoint and
oplog without changing a single bit of the result.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.bench.models import CoinModel, HmmModel, OutlierModel
from repro.errors import InferenceError
from repro.exec import (
    PersistentProcessExecutor,
    ResidentPopulation,
    SerialExecutor,
    ShardedPopulation,
    build_exchange_plan,
    parse_executor,
)
from repro.inference import infer

OBSERVATIONS = (0.5, 1.0, -0.3, 2.0, 0.8, -1.1)


def posterior_means(executor, *, method="pf", backend="scalar", n_particles=12,
                    seed=3, model_cls=HmmModel, obs=OBSERVATIONS, **kwargs):
    engine = infer(
        model_cls(), n_particles=n_particles, method=method, seed=seed,
        backend=backend, executor=executor, **kwargs,
    )
    state = engine.init()
    means = []
    for y in obs:
        dist, state = engine.step(state, y)
        means.append(dist.mean())
    return means


class TestExchangePlan:
    def test_all_local_when_indices_stay_home(self):
        plans, requests = build_exchange_plan(np.array([0, 1, 2, 3]), [2, 2])
        assert [list(plan) for plan in plans] == [
            [("local", 0), ("local", 1)], [("local", 0), ("local", 1)]
        ]
        assert requests == [{}, {}]

    def test_migrating_ancestors_become_imports(self):
        plans, requests = build_exchange_plan(np.array([0, 3, 3, 1]), [2, 2])
        assert list(plans[0]) == [("local", 0), ("import", 1, 0)]
        assert requests[0] == {1: [1]}
        # shard 1's slots are indices [3, 1]: one local, one import
        assert list(plans[1]) == [("local", 1), ("import", 0, 0)]
        assert requests[1] == {0: [1]}

    def test_repeated_ancestor_shipped_once(self):
        plans, requests = build_exchange_plan(np.array([3, 3, 3, 3]), [2, 2])
        assert list(plans[0]) == [("import", 1, 0), ("import", 1, 0)]
        assert requests[0] == {1: [1]}
        assert list(plans[1]) == [("local", 1), ("local", 1)]

    def test_unbalanced_sizes(self):
        plans, requests = build_exchange_plan(np.array([4, 0, 1, 2, 3]), [3, 2])
        assert list(plans[0]) == [("import", 1, 0), ("local", 0), ("local", 1)]
        assert requests[0] == {1: [1]}
        assert list(plans[1]) == [("import", 0, 0), ("local", 0)]
        assert requests[1] == {0: [2]}

    def test_wrong_index_count_rejected(self):
        with pytest.raises(InferenceError):
            build_exchange_plan(np.array([0, 1]), [2, 2])


class TestEquivalence:
    """serial vs processes-persistent:2, bit-for-bit (acceptance)."""

    @pytest.mark.parametrize("method", ["pf", "bds"])
    def test_scalar_matches_serial(self, method):
        assert posterior_means("processes-persistent:2", method=method) == \
            posterior_means("serial", method=method)

    @pytest.mark.parametrize("method", ["pf", "bds"])
    def test_vectorized_matches_serial(self, method):
        # bds has no vectorized engine: the auto fallback keeps the
        # executor config, so this also covers the fallback path.
        backend = "auto"
        assert posterior_means(
            "processes-persistent:2", method=method, backend=backend
        ) == posterior_means("serial", method=method, backend=backend)

    def test_sds_with_persistent_graphs_matches_serial(self):
        assert posterior_means("processes-persistent:2", method="sds") == \
            posterior_means("serial", method="sds")

    def test_vectorized_conjugate_sds_matches_serial(self):
        for model_cls, obs in (
            (OutlierModel, OBSERVATIONS),
            (CoinModel, (True, False, True, True)),
        ):
            kwargs = dict(method="sds", backend="vectorized",
                          model_cls=model_cls, obs=obs)
            assert posterior_means("processes-persistent:2", **kwargs) == \
                posterior_means("serial", **kwargs)

    def test_worker_count_is_pure_schedule(self):
        one = posterior_means("processes-persistent:1")
        two = posterior_means("processes-persistent:2")
        four = posterior_means(PersistentProcessExecutor(workers=4))
        assert one == two == four

    def test_duplicates_clone_mode_matches_serial(self):
        kwargs = dict(clone_on_resample="duplicates")
        assert posterior_means("processes-persistent:2", **kwargs) == \
            posterior_means("serial", **kwargs)

    def test_no_resample_commit_path_matches_serial(self):
        """resample_threshold=0 never resamples: the weights command."""
        kwargs = dict(resample_threshold=0.0)
        assert posterior_means("processes-persistent:2", **kwargs) == \
            posterior_means("serial", **kwargs)

    def test_multinomial_resampler_matches_serial(self):
        """Unsorted ancestor indices exercise heavy cross-shard traffic."""
        kwargs = dict(resampler="multinomial")
        assert posterior_means("processes-persistent:2", **kwargs) == \
            posterior_means("serial", **kwargs)


def _square(x):
    return x * x


def _big_roundtrip(blob):
    return blob + blob


class TestResidentState:
    def test_generic_map_shards_protocol(self):
        """The persistent executor still honours the Executor protocol."""
        executor = PersistentProcessExecutor(workers=2)
        try:
            assert executor.map_shards(_square, [3, 1, 2]) == [9, 1, 4]
        finally:
            executor.close()

    def test_map_shards_with_pipe_sized_messages(self):
        """Regression: tasks and results larger than the OS pipe buffer.

        With naive pipelining, a worker blocked sending a large reply
        while the coordinator blocked sending the next large command
        deadlocked; the one-in-flight pump must survive any size.
        """
        executor = PersistentProcessExecutor(workers=2)
        try:
            blobs = [bytes([i]) * 300_000 for i in range(6)]  # > 64KB pipes
            results = executor.map_shards(_big_roundtrip, blobs)
            assert results == [blob + blob for blob in blobs]
        finally:
            executor.close()

    def test_engine_state_is_a_handle(self):
        executor = PersistentProcessExecutor(workers=2)
        try:
            engine = infer(HmmModel(), n_particles=12, seed=0, executor=executor)
            state = engine.init()
            assert isinstance(state, ResidentPopulation)
            assert state.n_shards == engine.n_shards
            assert state.n_particles == 12
            _, state = engine.step(state, 0.5)
            assert isinstance(state, ResidentPopulation)
            assert engine.memory_words(state) > 0  # materializes a copy
        finally:
            executor.close()

    def test_release_frees_the_key(self):
        executor = PersistentProcessExecutor(workers=1)
        try:
            engine = infer(HmmModel(), n_particles=8, seed=0, executor=executor)
            state = engine.init()
            key = state.key
            assert key in executor._populations
            state.release()
            assert key not in executor._populations
            with pytest.raises(InferenceError):
                state.map_step(0.5)
        finally:
            executor.close()

    def test_last_stats_reflect_live_population(self):
        executor = PersistentProcessExecutor(workers=2)
        try:
            engine = infer(HmmModel(), n_particles=12, seed=1, executor=executor)
            state = engine.init()
            _, state = engine.step(state, 0.5)
            assert engine.last_stats is not None
            assert engine.last_stats.n_particles == 12
            assert np.isfinite(engine.last_stats.log_evidence)
        finally:
            executor.close()

    def test_spec_parsing_and_validation(self):
        executor = parse_executor("processes-persistent:3")
        assert isinstance(executor, PersistentProcessExecutor)
        assert executor.workers == 3
        assert executor.resident
        assert parse_executor("processes-persistent:3") is executor
        with pytest.raises(InferenceError):
            PersistentProcessExecutor(workers=0)
        with pytest.raises(InferenceError):
            PersistentProcessExecutor(workers=2, checkpoint_every=0)

    def test_worker_side_copy_pickles_as_shell(self):
        import pickle

        executor = PersistentProcessExecutor(workers=2)
        try:
            engine = infer(HmmModel(), n_particles=8, seed=0, executor=executor)
            engine.step(engine.init(), 0.5)  # force start + residents
            clone = pickle.loads(pickle.dumps(executor))
            assert clone.workers == 2
            assert clone._slots is None
            assert clone._populations == {}
        finally:
            executor.close()


class TestCrashRecovery:
    """A worker that dies mid-stream is rebuilt without changing results."""

    def _run_with_crash(self, method, crash_at, checkpoint_every, seed=3):
        executor = PersistentProcessExecutor(
            workers=2, checkpoint_every=checkpoint_every
        )
        try:
            engine = infer(
                HmmModel(), n_particles=12, method=method, seed=seed,
                executor=executor,
            )
            state = engine.init()
            means = []
            for i, y in enumerate(OBSERVATIONS):
                if i == crash_at:
                    os.kill(executor.worker_pids()[0], signal.SIGKILL)
                    time.sleep(0.1)
                dist, state = engine.step(state, y)
                means.append(dist.mean())
            return means
        finally:
            executor.close()

    @pytest.mark.parametrize("checkpoint_every", [1, 3, 100])
    def test_pf_recovers_bit_identical(self, checkpoint_every):
        serial = posterior_means("serial")
        assert self._run_with_crash("pf", 4, checkpoint_every) == serial

    def test_sds_recovers_bit_identical(self):
        """Graph-carrying particles replay exactly (checkpointed RNGs)."""
        serial = posterior_means("serial", method="sds")
        assert self._run_with_crash("sds", 3, 2) == serial

    def test_close_then_resume_is_bit_identical(self):
        """close() keeps checkpoints: a resident engine survives it."""
        serial = posterior_means("serial")
        executor = PersistentProcessExecutor(workers=2, checkpoint_every=2)
        try:
            engine = infer(
                HmmModel(), n_particles=12, seed=3, executor=executor
            )
            state = engine.init()
            means = []
            for i, y in enumerate(OBSERVATIONS):
                if i == 3:
                    executor.close()  # workers gone, checkpoints kept
                dist, state = engine.step(state, y)
                means.append(dist.mean())
            assert means == serial
        finally:
            executor.close()

    def test_worker_exception_propagates_without_revive(self):
        from repro.faults import FAULTS

        if FAULTS.enabled:
            # Under an injected chaos plan (CI chaos job) crash faults
            # may legitimately revive workers during this test's steps,
            # so pid stability is not a valid assertion there.
            pytest.skip("fault injection active: worker pids may change")
        executor = PersistentProcessExecutor(workers=2)
        try:
            engine = infer(HmmModel(), n_particles=8, seed=0, executor=executor)
            state = engine.init()
            pids = executor.worker_pids()
            with pytest.raises(InferenceError, match="persistent worker"):
                # an HMM observation must be a float; a string blows up
                # inside the worker and must come back as an error reply
                engine.step(state, "not-an-observation")
            assert executor.worker_pids() == pids  # no revive happened
        finally:
            executor.close()

    def test_failed_step_poisons_the_population(self):
        """A part-way-failed step leaves shards desynchronized, so the
        population must refuse further use instead of silently
        producing a wrong posterior."""
        executor = PersistentProcessExecutor(workers=2)
        try:
            engine = infer(HmmModel(), n_particles=8, seed=0, executor=executor)
            state = engine.init()
            with pytest.raises(InferenceError, match="persistent worker"):
                engine.step(state, "not-an-observation")
            with pytest.raises(InferenceError, match="inconsistent"):
                engine.step(state, 0.5)
            state.release()  # releasing a poisoned population still works
            # a fresh init() on the same executor recovers cleanly
            state = engine.init()
            dist, state = engine.step(state, 0.5)
            assert np.isfinite(dist.mean())
        finally:
            executor.close()


class TestRecoveryEqualsWorker:
    """Coordinator-side recovery rebuilds the shards the workers hold.

    ``recover_population`` replays checkpoint + oplog through the same
    routine the workers run; at every oplog point (checkpoints refresh
    every 3 instants) it must reproduce the live residents exactly.
    """

    @pytest.mark.parametrize(
        "method, backend, model_cls",
        [
            ("pf", "scalar", HmmModel),
            ("sds", "scalar", OutlierModel),
            ("pf", "vectorized", HmmModel),
            ("bds", "vectorized", OutlierModel),  # batched graph engine
        ],
    )
    def test_recovered_shards_match_pulled_shards(self, method, backend, model_cls):
        # Spread-out observations make every engine log both barrier
        # kinds: resampling ("assemble") and weight commits ("weights").
        obs = (3.0 * np.random.default_rng(11).normal(size=12)).tolist()
        executor = PersistentProcessExecutor(workers=2, checkpoint_every=3)
        try:
            engine = infer(
                model_cls(), n_particles=12, method=method, backend=backend,
                seed=3, executor=executor, resample_threshold=0.5,
            )
            state = engine.init()
            barriers = set()
            for y in obs[:7]:
                _, state = engine.step(state, y)
                oplog = executor._populations[state.key].oplogs[0]
                barriers.update(command[0] for command in oplog[1::2])
                recovered = executor.recover_population(state.key)
                pulled = executor.pull_population(state.key)
                assert [s.rng.bit_generator.state for s in recovered] == [
                    s.rng.bit_generator.state for s in pulled
                ]
            assert barriers == {"assemble", "weights"}
            # Continue both populations serially from one engine state.
            engine.executor = SerialExecutor()
            rng_state = engine.rng.bit_generator.state
            continued = []
            for shards in (recovered, pulled):
                engine.rng.bit_generator.state = rng_state
                population, means = ShardedPopulation(shards), []
                for y in obs[7:]:
                    dist, population = engine.step(population, y)
                    means.append(dist.mean())
                continued.append(means)
            assert continued[0] == continued[1]
        finally:
            executor.close()
