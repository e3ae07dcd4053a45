"""The executor protocol: scheduling, specs, caching, pickling, lifecycle."""

import pickle

import pytest

from repro.errors import InferenceError
from repro.exec import (
    EXECUTORS,
    PersistentProcessExecutor,
    SerialExecutor,
    ThreadShardExecutor,
    parse_executor,
    shard_bounds,
    shard_sizes,
    shutdown_executors,
    spawn_shard_rngs,
    split_sequence,
)
from repro.exec.executor import _INSTANCES


def _square(x):
    return x * x


class TestMapShards:
    def test_serial_preserves_order(self):
        assert SerialExecutor().map_shards(_square, [3, 1, 2]) == [9, 1, 4]

    def test_threads_preserve_order(self):
        with ThreadShardExecutor(workers=3) as executor:
            assert executor.map_shards(_square, list(range(10))) == [
                i * i for i in range(10)
            ]

    def test_processes_preserve_order(self):
        with PersistentProcessExecutor(workers=2) as executor:
            assert executor.map_shards(_square, [5, 4, 3]) == [25, 16, 9]

    def test_pool_reused_after_close(self):
        executor = ThreadShardExecutor(workers=2)
        assert executor.map_shards(_square, [2]) == [4]
        executor.close()
        # a closed executor lazily re-creates its pool
        assert executor.map_shards(_square, [3]) == [9]
        executor.close()


class TestSpecs:
    def test_none_is_serial(self):
        assert isinstance(parse_executor(None), SerialExecutor)

    def test_instance_passes_through(self):
        executor = ThreadShardExecutor(workers=2)
        assert parse_executor(executor) is executor

    def test_named_specs(self):
        assert isinstance(parse_executor("serial"), SerialExecutor)
        assert parse_executor("threads:3").workers == 3
        assert isinstance(parse_executor("threads:3"), ThreadShardExecutor)
        assert isinstance(
            parse_executor("processes-persistent:2"), PersistentProcessExecutor
        )

    def test_spec_instances_are_cached(self):
        assert parse_executor("threads:2") is parse_executor("threads:2")
        assert parse_executor("threads:2") is not parse_executor("threads:3")

    def test_registry_names(self):
        assert set(EXECUTORS) == {"serial", "threads", "processes-persistent"}

    def test_retired_process_pool_spec_names_the_remaining_executors(self):
        with pytest.raises(
            InferenceError,
            match=r"unknown executor 'processes'; choose from "
            r"\['processes-persistent', 'serial', 'threads'\]",
        ):
            parse_executor("processes:2")

    def test_bad_specs_rejected(self):
        with pytest.raises(InferenceError):
            parse_executor("gpu")
        with pytest.raises(InferenceError):
            parse_executor("threads:lots")
        with pytest.raises(InferenceError):
            parse_executor("serial:2")
        with pytest.raises(InferenceError):
            parse_executor(42)

    def test_zero_workers_rejected(self):
        with pytest.raises(InferenceError):
            ThreadShardExecutor(workers=0)


class TestLifecycle:
    """shutdown_executors(): the spec cache must be releasable.

    Regression (ISSUE 3): the per-spec cache used to keep thread and
    process pools alive for the interpreter's lifetime with no way to
    release them, so sweeps and pytest runs accumulated worker
    processes.
    """

    def test_shutdown_clears_the_cache(self):
        executor = parse_executor("threads:2")
        assert "threads:2" in _INSTANCES
        shutdown_executors()
        assert _INSTANCES == {}
        # a fresh instance is built on next request
        assert parse_executor("threads:2") is not executor

    def test_shutdown_closes_pools(self):
        executor = parse_executor("threads:2")
        executor.map_shards(_square, [1])  # force pool creation
        shutdown_executors()
        assert executor._pool is None

    def test_shutdown_terminates_persistent_workers(self):
        executor = parse_executor("processes-persistent:2")
        pids = executor.worker_pids()
        assert len(pids) == 2
        shutdown_executors()
        assert executor._slots is None

    def test_closed_executor_recovers_on_next_use(self):
        executor = parse_executor("threads:2")
        shutdown_executors()
        assert executor.map_shards(_square, [3]) == [9]
        executor.close()

    def test_shutdown_is_idempotent(self):
        parse_executor("threads:2")
        shutdown_executors()
        shutdown_executors()
        assert _INSTANCES == {}


class TestPickling:
    def test_pooled_executor_pickles_without_pool(self):
        executor = ThreadShardExecutor(workers=2)
        executor.map_shards(_square, [1])  # force pool creation
        clone = pickle.loads(pickle.dumps(executor))
        assert clone.workers == 2
        assert clone._pool is None
        executor.close()


class TestPartitioning:
    def test_shard_sizes_balanced(self):
        assert shard_sizes(10, 4) == [3, 3, 2, 2]
        assert shard_sizes(8, 4) == [2, 2, 2, 2]
        assert shard_sizes(4, 4) == [1, 1, 1, 1]

    def test_shard_bounds_contiguous(self):
        bounds = shard_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_too_many_shards_rejected(self):
        with pytest.raises(InferenceError):
            shard_sizes(2, 3)

    def test_split_sequence_round_trips(self):
        items = list(range(11))
        chunks = split_sequence(items, 4)
        assert [x for chunk in chunks for x in chunk] == items

    def test_spawn_rngs_deterministic_in_seed(self):
        a = spawn_shard_rngs(3, seed=7)
        b = spawn_shard_rngs(3, seed=7)
        for ra, rb in zip(a, b):
            assert ra.random() == rb.random()

    def test_spawn_rngs_independent_streams(self):
        rngs = spawn_shard_rngs(4, seed=0)
        draws = {rng.random() for rng in rngs}
        assert len(draws) == 4
