"""Structure-of-arrays particle representation.

The scalar engines (``repro.inference.engine``) hold one Python object
per particle and advance them in an interpreter loop, so per-step cost
is dominated by interpreter overhead. The vectorized backend stores the
whole particle population *transposed*: each state variable is one
stacked NumPy array with the particle index as the leading axis, and
the importance weights are a single log-weight vector. One engine step
is then a handful of array operations whose cost scales with hardware
throughput, not Python bytecode count.

A batch state is a *pytree* of arrays — ``None``, an ``ndarray`` of
leading dimension ``n``, or a tuple/list/dict of batch states. The
helpers here (:func:`gather`, :func:`batch_state_words`) traverse that
shape, so vectorized models are free to keep whatever state structure
mirrors their scalar counterpart.

Opaque leaves can opt in through the **row protocol**: any object
exposing ``batch_gather(indices)``, ``batch_slice(start, stop)``,
``batch_concat(tail)``, ``batch_rows()``, and ``batch_words()`` is
treated as one structure-of-arrays leaf whose particle axis the
helpers delegate to. This is how the array-native delayed-sampling
state (:class:`~repro.vectorized.sds_graph.ChainState`) — a whole
graph of per-slot arrays, not a flat array — flows through the engine
plan, the resample gather, and the worker-resident shard operations
without special cases in the executors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

import numpy as np

from repro.errors import InferenceError
from repro.symbolic import map_leaves, zip_leaves

__all__ = [
    "ParticleBatch",
    "gather",
    "batch_state_words",
    "slice_state",
    "concat_states",
    "state_rows",
]


def _not_a_leaf(value: Any) -> InferenceError:
    return InferenceError(
        f"batch state leaves must be arrays (or None), got {type(value).__name__}"
    )


def gather(state: Any, indices: np.ndarray) -> Any:
    """Index every array leaf of a batch state along the particle axis.

    This is the vectorized analogue of cloning selected particles during
    resampling: ``state[indices]`` materializes fresh arrays, so the
    surviving particles never alias each other's storage.
    """
    indices = np.asarray(indices)

    def leaf(value: Any) -> Any:
        if value is None:
            return None
        if hasattr(value, "batch_gather"):
            return value.batch_gather(indices)
        if isinstance(value, np.ndarray):
            return value[indices]
        raise _not_a_leaf(value)

    return map_leaves(state, leaf)


def slice_state(state: Any, start: int, stop: int) -> Any:
    """Slice every array leaf of a batch state along the particle axis.

    The sharding counterpart of :func:`gather`: a view of one contiguous
    particle range (shards never overlap, so views are safe to advance
    independently).
    """

    def leaf(value: Any) -> Any:
        if value is None:
            return None
        if hasattr(value, "batch_slice"):
            return value.batch_slice(start, stop)
        if isinstance(value, np.ndarray):
            return value[start:stop]
        raise _not_a_leaf(value)

    return map_leaves(state, leaf)


def concat_states(states: Any) -> Any:
    """Concatenate same-shaped batch states along the particle axis.

    The merge counterpart of :func:`slice_state`: per-shard outputs and
    states become one population-sized pytree again, in shard order.
    """
    states = list(states)
    if not states:
        raise InferenceError("cannot concatenate an empty state list")
    return zip_leaves(states, _concat_leaf)


def _concat_leaf(values: List[Any]) -> Any:
    head = values[0]
    if head is None:
        return None
    if hasattr(head, "batch_concat"):
        return head.batch_concat(values[1:])
    if isinstance(head, np.ndarray) or np.isscalar(head):
        return np.concatenate([np.atleast_1d(np.asarray(v)) for v in values])
    raise _not_a_leaf(head)


def state_rows(state: Any) -> int:
    """Leading-axis (particle) count of a batch state.

    The length of the first array leaf found; every leaf shares the
    particle axis, so any one of them answers for the whole pytree.
    """
    if hasattr(state, "batch_rows"):
        return int(state.batch_rows())
    if isinstance(state, np.ndarray):
        return int(state.shape[0])
    leaves: Any = ()
    if isinstance(state, (tuple, list)):
        leaves = state
    elif isinstance(state, dict):
        leaves = state.values()
    for leaf in leaves:
        try:
            return state_rows(leaf)
        except InferenceError:
            continue
    raise InferenceError("batch state has no array leaf to measure")


def batch_state_words(state: Any) -> int:
    """Abstract heap words of a batch state (cf. ``state_words``)."""
    if state is None:
        return 1
    if hasattr(state, "batch_words"):
        return int(state.batch_words())
    if isinstance(state, np.ndarray):
        return 1 + int(state.size)
    if isinstance(state, (tuple, list)):
        return 1 + sum(batch_state_words(s) for s in state)
    if isinstance(state, dict):
        return 1 + sum(batch_state_words(v) for v in state.values())
    return 2


@dataclass
class ParticleBatch:
    """The whole particle population as stacked arrays plus log-weights.

    ``state`` is a pytree of arrays with leading dimension ``n``;
    ``log_weights`` is the length-``n`` accumulated log-weight vector
    (the transposed counterpart of ``Particle.log_weight``).
    """

    state: Any
    log_weights: np.ndarray

    def __post_init__(self) -> None:
        self.log_weights = np.asarray(self.log_weights, dtype=float)
        if self.log_weights.ndim != 1 or self.log_weights.size == 0:
            raise InferenceError("log_weights must be a non-empty vector")

    @property
    def n(self) -> int:
        """Number of particles in the batch."""
        return int(self.log_weights.size)

    def select(self, indices: np.ndarray) -> "ParticleBatch":
        """Resample: keep the particles at ``indices``, reset weights."""
        indices = np.asarray(indices)
        return ParticleBatch(
            state=gather(self.state, indices),
            log_weights=np.zeros(indices.size),
        )

    def with_weights(self, log_weights: np.ndarray) -> "ParticleBatch":
        """Same states, new accumulated log-weight vector."""
        return ParticleBatch(state=self.state, log_weights=log_weights)

    def memory_words(self) -> int:
        """Abstract heap words held by the batch (state + weight vector)."""
        return batch_state_words(self.state) + 1 + self.n


# Register ParticleBatch with the shared-memory transport: shard
# payloads cross the pipe inside checkpoint pulls ("pull" replies) and
# worker reloads ("load" commands), and opening the batch up lets its
# state arrays and weight vector ride the ring as descriptors instead
# of pickled bytes. Both sides of the pipe import this module (workers
# unpickle the vectorized stepper), so the codec exists everywhere.
from repro.exec.shm import register_shm_leaf  # noqa: E402

register_shm_leaf(
    ParticleBatch,
    lambda batch: (batch.state, batch.log_weights),
    lambda parts: ParticleBatch(*parts),
)
