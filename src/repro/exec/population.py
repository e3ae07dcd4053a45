"""Sharded particle populations and the executor-driven step cycle.

One inference step over a sharded population is a fixed plan::

    map-step          every shard advances its particles with its own
                      RNG substream (scheduled by an Executor),
    merge-weights     the per-shard weight vectors are concatenated in
                      shard order and normalized globally,
    resample-barrier  the engine draws global ancestor indices from its
                      own generator and the survivors are re-scattered
                      into contiguous shards of the original sizes.

Determinism comes from fixing the *partition*, not the schedule: the
shard count and the per-shard :class:`numpy.random.SeedSequence`
substreams are properties of the population, chosen independently of
the executor, so any worker count — serial, 4 threads, 4 worker
processes — replays exactly the same random streams and produces the
same posterior bit-for-bit.

Shard payloads are opaque to this module: the scalar engines put a
``list`` of :class:`~repro.inference.particles.Particle` objects in each
shard, the vectorized engines a
:class:`~repro.vectorized.batch.ParticleBatch` slice. The engine
supplies the per-shard stepper; :func:`map_step` owns scheduling and
RNG-state bookkeeping.

:class:`ResidentPopulation` is the worker-resident variant of the same
plan for :class:`~repro.exec.executor.PersistentProcessExecutor`: the
shards stay loaded in long-lived workers, the engine sees only a
handle, and each phase of the cycle becomes a command — ``map_step``
returns light :class:`ShardSummary` records, the resample barrier
ships the :func:`build_exchange_plan` output plus the few migrating
particles, and a barrier without resampling ships nothing at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import InferenceError
from repro.exec.executor import Executor, shard_len
from repro.exec.shm import register_shm_leaf
from repro.obs.spans import TELEMETRY

__all__ = [
    "DEFAULT_SHARDS",
    "Shard",
    "ShardResult",
    "ShardSummary",
    "ShardedPopulation",
    "ResidentPopulation",
    "ExchangePlan",
    "map_step",
    "build_exchange_plan",
    "shard_sizes",
    "shard_bounds",
    "split_sequence",
    "spawn_shard_rngs",
]

#: shard count used when an executor is requested without an explicit
#: ``n_shards``. A fixed constant — deliberately *not* derived from the
#: worker count — so the posterior is identical for every executor.
DEFAULT_SHARDS = 4


def shard_sizes(n_items: int, n_shards: int) -> List[int]:
    """Balanced contiguous partition sizes (first shards get the rest)."""
    if n_shards < 1:
        raise InferenceError("need at least one shard")
    if n_items < n_shards:
        raise InferenceError(
            f"cannot split {n_items} particles into {n_shards} shards"
        )
    base, extra = divmod(n_items, n_shards)
    return [base + (1 if i < extra else 0) for i in range(n_shards)]


def shard_bounds(n_items: int, n_shards: int) -> List[Tuple[int, int]]:
    """The ``(start, stop)`` slice of each shard in the merged order."""
    bounds = []
    start = 0
    for size in shard_sizes(n_items, n_shards):
        bounds.append((start, start + size))
        start += size
    return bounds


def split_sequence(items: Sequence[Any], n_shards: int) -> List[List[Any]]:
    """Split a sequence into the contiguous per-shard chunks."""
    return [list(items[start:stop]) for start, stop in shard_bounds(len(items), n_shards)]


def spawn_shard_rngs(
    n_shards: int,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[np.random.Generator]:
    """One independent generator per shard via ``SeedSequence.spawn``.

    With a ``seed``, the substreams are a pure function of
    ``(seed, n_shards)``. Without one, entropy is drawn from ``rng`` (or
    the OS), so the substreams are still reproducible for a seeded
    engine-level generator.
    """
    if seed is not None:
        entropy: Union[int, None] = int(seed)
    elif rng is not None:
        entropy = int(rng.integers(0, 2**63))
    else:
        entropy = None
    root = np.random.SeedSequence(entropy)
    return [np.random.default_rng(child) for child in root.spawn(n_shards)]


@dataclass
class Shard:
    """One partition of the population: payload plus its RNG substream."""

    index: int
    rng: np.random.Generator
    payload: Any


@dataclass
class ShardResult:
    """What one shard reports back from the map phase of a step."""

    #: stacked per-particle outputs (list for scalar shards, array
    #: pytree for batch shards)
    outs: Any
    #: the advanced shard payload
    payload: Any
    #: this step's observe/factor log-weight contributions
    step_log_weights: np.ndarray
    #: accumulated log-weights carried into the step
    prev_log_weights: np.ndarray
    #: the shard generator after the step
    rng: np.random.Generator


class ShardedPopulation:
    """A particle population partitioned into deterministic shards.

    This is the engine state in sharded mode — the counterpart of the
    scalar engines' particle list and the vectorized engines'
    :class:`~repro.vectorized.batch.ParticleBatch`, holding the same
    information split into contiguous chunks that carry their own RNG
    substreams.
    """

    def __init__(self, shards: Sequence[Shard]):
        if not shards:
            raise InferenceError("a sharded population needs at least one shard")
        self.shards = list(shards)

    @classmethod
    def build(
        cls,
        chunks: Sequence[Any],
        rngs: Sequence[np.random.Generator],
    ) -> "ShardedPopulation":
        """A population from per-shard payload chunks and generators."""
        if len(chunks) != len(rngs):
            raise InferenceError("need exactly one generator per shard")
        return cls(
            [Shard(i, rng, chunk) for i, (chunk, rng) in enumerate(zip(chunks, rngs))]
        )

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def payloads(self) -> List[Any]:
        return [shard.payload for shard in self.shards]

    def with_payloads(self, payloads: Sequence[Any]) -> "ShardedPopulation":
        """Same shard structure (indices, generators), new payloads."""
        if len(payloads) != self.n_shards:
            raise InferenceError("payload count must match shard count")
        return ShardedPopulation(
            [
                Shard(shard.index, shard.rng, payload)
                for shard, payload in zip(self.shards, payloads)
            ]
        )

    def __len__(self) -> int:
        return self.n_shards

    def __repr__(self) -> str:
        return f"ShardedPopulation(n_shards={self.n_shards})"


@dataclass
class ShardSummary:
    """What a *resident* shard reports back from the map phase.

    The light-weight counterpart of :class:`ShardResult`: the advanced
    payload and generator stay in the worker, only the per-particle
    outputs and the two log-weight vectors cross the process boundary.
    """

    #: stacked per-particle outputs (list for scalar shards, array
    #: pytree for batch shards)
    outs: Any
    #: this step's observe/factor log-weight contributions
    step_log_weights: np.ndarray
    #: accumulated log-weights carried into the step
    prev_log_weights: np.ndarray
    #: worker-side telemetry spans ``[(phase, duration_ms), ...]`` when
    #: the step command requested tracing; None otherwise.
    spans: Any


class ExchangePlan:
    """Array-encoded slot plan of one destination shard at the barrier.

    Three parallel arrays — ``kind`` (0 = local ancestor, 1 = import),
    ``a`` (the local index for kind 0, the source shard for kind 1) and
    ``b`` (the export-package row for kind 1) — that ride the
    shared-memory command ring as descriptors instead of pickling
    O(shard size) tuples every resample. The vectorized engine consumes
    the arrays directly; iterating yields the per-slot entries
    (``("local", i)`` / ``("import", s, r)``) that the scalar engine's
    clone bookkeeping reads.
    """

    __slots__ = ("kind", "a", "b")

    LOCAL = 0
    IMPORT = 1

    def __init__(self, kind: np.ndarray, a: np.ndarray, b: np.ndarray):
        self.kind = np.asarray(kind, dtype=np.uint8)
        self.a = np.asarray(a, dtype=np.int64)
        self.b = np.asarray(b, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.kind.shape[0])

    def __iter__(self):
        for kind, a, b in zip(self.kind, self.a, self.b):
            if kind == self.LOCAL:
                yield ("local", int(a))
            else:
                yield ("import", int(a), int(b))

    def __getstate__(self):
        return (self.kind, self.a, self.b)

    def __setstate__(self, state):
        self.kind, self.a, self.b = state

    def __repr__(self) -> str:
        imports = int(np.count_nonzero(self.kind))
        return f"ExchangePlan(slots={len(self)}, imports={imports})"


# The plan's index arrays park in the command ring like any other array
# payload; the codec exists on both sides of the pipe (workers import
# this module to unpickle the stepper).
register_shm_leaf(
    ExchangePlan,
    lambda plan: (plan.kind, plan.a, plan.b),
    lambda parts: ExchangePlan(*parts),
)

# A checkpoint ``pull`` reply is one Shard; opening it up lets the
# payload arrays (vectorized batch states) ride the reply ring. The RNG
# rides the pickle — it is an opaque Generator, not an array.
register_shm_leaf(
    Shard,
    lambda shard: (shard.index, shard.rng, shard.payload),
    lambda parts: Shard(*parts),
)


def build_exchange_plan(
    indices: np.ndarray, sizes: Sequence[int]
) -> Tuple[List[ExchangePlan], List[Dict[int, np.ndarray]]]:
    """Plan the resample barrier against worker-resident shards.

    ``indices`` are the global ancestor indices (engine-drawn) and
    ``sizes`` the fixed shard partition; destination shard ``d``
    receives the contiguous slice ``indices[start_d:stop_d]`` — exactly
    the re-scatter of the materialized plan. Returns ``(plans,
    requests)``:

    * ``plans[d]`` — an :class:`ExchangePlan` with one entry per
      destination slot, either ``("local", local_index)`` (the ancestor
      already lives in shard ``d``) or ``("import", source_shard,
      row)`` (the ancestor migrates; ``row`` indexes the export package
      requested from that source).
    * ``requests[d][s]`` — the source-local indices destination ``d``
      needs from shard ``s``, in row order (an int array, so export
      commands ride the ring). An ancestor needed several times by one
      destination is shipped once and referenced per slot.
    """
    offsets = np.concatenate([[0], np.cumsum(np.asarray(sizes, dtype=np.int64))])
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) != int(offsets[-1]):
        raise InferenceError(
            f"need exactly {int(offsets[-1])} ancestor indices, got {len(indices)}"
        )
    source_of = np.searchsorted(offsets, indices, side="right") - 1
    local_of = indices - offsets[source_of]
    plans: List[ExchangePlan] = []
    requests: List[Dict[int, np.ndarray]] = []
    for dest in range(len(sizes)):
        start, stop = int(offsets[dest]), int(offsets[dest + 1])
        source = source_of[start:stop]
        local = local_of[start:stop]
        kind = (source != dest).astype(np.uint8)
        a = np.where(kind == 0, local, source)
        b = np.zeros(len(a), dtype=np.int64)
        rows_by_source: Dict[int, Dict[int, int]] = {}
        for pos in np.nonzero(kind)[0]:
            # Import rows are numbered in first-appearance order per
            # source: an ancestor used by several slots ships once.
            rows = rows_by_source.setdefault(int(source[pos]), {})
            b[pos] = rows.setdefault(int(local[pos]), len(rows))
        plans.append(ExchangePlan(kind, a, b))
        requests.append(
            {
                s: np.fromiter(rows, dtype=np.int64, count=len(rows))
                for s, rows in rows_by_source.items()
            }
        )
    return plans, requests


class ResidentPopulation:
    """A handle to a population whose shards live in executor workers.

    The worker-resident counterpart of :class:`ShardedPopulation`: the
    partition (shard count, sizes, RNG substreams) is identical, but
    the payloads stay resident in the workers of a
    :class:`~repro.exec.executor.PersistentProcessExecutor` and the
    engine drives them through commands — step, weight commit, resample
    exchange — instead of shipping them through every call.
    """

    def __init__(self, executor: Executor, key: int, sizes: Sequence[int]):
        self.executor = executor
        self.key = key
        self.sizes = list(sizes)
        self._released = False

    @classmethod
    def create(
        cls, executor: Executor, stepper: Any, shards: Sequence[Shard]
    ) -> "ResidentPopulation":
        """Load ``shards`` into the executor's workers under a new key."""
        sizes = [shard_len(shard) for shard in shards]
        key = executor.new_key()
        executor.load_population(key, stepper, shards)
        return cls(executor, key, sizes)

    @property
    def n_shards(self) -> int:
        return len(self.sizes)

    @property
    def n_particles(self) -> int:
        return sum(self.sizes)

    def _check_live(self) -> None:
        if self._released:
            raise InferenceError("this resident population has been released")

    def map_step(self, inp: Any, trace: bool = False) -> List[ShardSummary]:
        """Advance every resident shard one step; collect the summaries.

        With ``trace=True`` the step command asks each worker to time
        its shard step and ship the spans back with the summary.
        """
        self._check_live()
        return [
            ShardSummary(*summary)
            for summary in self.executor.step_population(
                self.key, inp, trace=trace
            )
        ]

    def resample(self, indices: np.ndarray) -> None:
        """Barrier with resampling: ship the plan, exchange migrants."""
        self._check_live()
        timer = TELEMETRY.step_timer()
        plans, requests = build_exchange_plan(np.asarray(indices), self.sizes)
        timer.mark("exchange_plan")
        self.executor.exchange_population(self.key, requests, plans)
        timer.mark("migrate")

    def commit_weights(self) -> None:
        """Barrier without resampling: workers fold weights locally."""
        self._check_live()
        self.executor.commit_population_weights(self.key)

    def materialize(self) -> ShardedPopulation:
        """Pull every shard out of the workers (diagnostics, checkpoints)."""
        self._check_live()
        return ShardedPopulation(self.executor.pull_population(self.key))

    def release(self) -> None:
        """Free the worker-resident shards and coordinator checkpoints."""
        if self._released:
            return
        self._released = True
        self.executor.release_population(self.key)

    def __del__(self) -> None:
        try:
            self.release()
        except Exception:
            pass

    def __len__(self) -> int:
        return self.n_shards

    def __repr__(self) -> str:
        return (
            f"ResidentPopulation(key={self.key}, n_shards={self.n_shards}, "
            f"released={self._released})"
        )


def map_step(
    executor: Executor,
    stepper: Any,
    population: ShardedPopulation,
    inp: Any,
) -> Tuple[List[ShardResult], ShardedPopulation]:
    """The map phase of one step: advance every shard under ``executor``.

    Returns the per-shard results in shard order plus the advanced
    population (payloads and generators updated from the results).
    Only the serial and thread executors run this: a worker-resident
    population steps through :meth:`ResidentPopulation.map_step`.
    """

    def step(shard: Shard) -> ShardResult:
        return stepper.step_shard(shard.payload, shard.rng, inp)

    results = executor.map_shards(step, population.shards)
    advanced = ShardedPopulation(
        [
            Shard(shard.index, result.rng, result.payload)
            for shard, result in zip(population.shards, results)
        ]
    )
    return results, advanced
