"""Stream serving: many concurrent inference streams, one executor.

The paper runs ``infer`` as a synchronous node inside *one* reactive
program. A server multiplexes *many* such programs — one per user
session — over a single shared :class:`~repro.exec.executor.Executor`:
each session owns an engine and its externalized state, observations
are submitted asynchronously per session, and the server schedules
pending work in rounds.

Scheduling policies:

* ``"round_robin"`` — each scheduling round advances every session with
  pending input by exactly one synchronous step, in session-open order.
  Fair latency under heavy traffic.
* ``"as_ready"`` — observations are processed in global arrival order,
  whichever session they belong to. FIFO throughput semantics.

Both policies are deterministic: given the same sessions, submissions,
and seeds, the produced posteriors are identical regardless of the
executor or its worker count, because every engine's randomness lives
in its own population's shard substreams.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.dists import Distribution
from repro.errors import InferenceError
from repro.exec.executor import Executor, parse_executor
from repro.exec.population import ResidentPopulation
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Histogram,
    count_event,
)
from repro.obs.spans import TELEMETRY

__all__ = ["StreamSession", "StreamServer"]

_POLICIES = ("round_robin", "as_ready")

#: bucket bounds for the per-tick queue-depth histogram (observations
#: pending when a scheduling round starts).
_QUEUE_DEPTH_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0)


def _latency_summary(hist: Histogram) -> Dict[str, Any]:
    """SLO view of a latency histogram: count, mean, p50/p95/p99."""
    return {
        "count": hist.count,
        "mean_ms": hist.mean,
        "p50_ms": hist.quantile(0.50),
        "p95_ms": hist.quantile(0.95),
        "p99_ms": hist.quantile(0.99),
    }


class StreamSession:
    """One user's inference stream: an engine plus its live state."""

    def __init__(self, session_id: str, engine: Any):
        self.session_id = session_id
        self.engine = engine
        self.state = engine.init()
        #: observations waiting to be consumed, as (arrival_seq, obs)
        self.pending: Deque[Tuple[int, Any]] = deque()
        #: posterior distributions produced so far, in step order
        self.outputs: List[Distribution] = []
        self.steps = 0
        #: per-session step-latency histogram. A *local* histogram, not
        #: a registry entry: session ids are unbounded, and unbounded
        #: label cardinality is exactly what a metrics registry must not
        #: absorb. The server's :meth:`StreamServer.metrics_snapshot`
        #: reads it out on demand.
        self.latency = Histogram(
            "repro_session_step_ms",
            labels=(("session", session_id),),
            help="per-session synchronous step latency",
            buckets=DEFAULT_LATENCY_BUCKETS_MS,
        )
        #: duration of the most recent step, in milliseconds.
        self.last_step_ms: Optional[float] = None
        #: checkpoint-recovery retries this session has survived
        #: (see ``StreamServer._retry_session``).
        self.retries = 0

    @property
    def backlog(self) -> int:
        """Number of submitted observations not yet processed."""
        return len(self.pending)

    def step_once(self) -> Distribution:
        """Consume the oldest pending observation (one synchronous step)."""
        if not self.pending:
            raise InferenceError(f"session {self.session_id!r} has no pending input")
        _, obs = self.pending.popleft()
        started = perf_counter()
        dist, self.state = self.engine.step(self.state, obs)
        self.last_step_ms = (perf_counter() - started) * 1e3
        self.latency.observe(self.last_step_ms)
        self.outputs.append(dist)
        self.steps += 1
        return dist


class StreamServer:
    """Serve many concurrent engine streams over one shared executor.

    ::

        server = StreamServer(executor="threads:4")
        for user in range(16):
            server.open(HmmModel(), session_id=f"user{user}", seed=user)
        server.submit("user3", 0.7)
        server.drain()                       # run all pending work
        posterior = server.latest("user3")

    Engines opened through the server share the server's executor (each
    engine's shards are scheduled on the same pool), so total worker
    count is a server-level resource, not per-session. With a
    worker-resident executor (``"processes-persistent:N"``) every
    session's shards stay loaded in the same persistent pool — one set
    of worker processes serves all sessions, and closing a session
    releases its shards from that pool.
    """

    def __init__(
        self,
        executor: Union[None, str, Executor] = None,
        policy: str = "round_robin",
    ):
        if policy not in _POLICIES:
            raise InferenceError(
                f"unknown scheduling policy {policy!r}; choose from {_POLICIES}"
            )
        self.executor = parse_executor(executor)
        # Only inject the executor into sessions when the caller asked
        # for one: a default StreamServer() must serve each session with
        # exactly the engine `infer(model, ...)` would build, same seed
        # same posterior, rather than silently opting into sharded mode.
        self._share_executor = executor is not None
        self.policy = policy
        self._sessions: Dict[str, StreamSession] = {}
        self._arrivals = 0
        self._processed = 0
        self._evicted = 0
        # Server-level SLO instrumentation: always on (local histograms,
        # one observe per step/round), independent of the step-phase
        # tracing switch.
        self._step_latency = Histogram(
            "repro_server_step_ms", help="session step latency, all sessions"
        )
        self._tick_latency = Histogram(
            "repro_server_tick_ms", help="scheduling-round latency"
        )
        self._queue_depth = Histogram(
            "repro_server_queue_depth",
            help="total backlog at the start of each scheduling round",
            buckets=_QUEUE_DEPTH_BUCKETS,
        )

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def open(self, model: Any, session_id: Optional[str] = None, **infer_kwargs: Any) -> str:
        """Open a session running ``infer(model, **infer_kwargs)``.

        The session's engine uses the server's executor unless the
        caller overrides ``executor=`` explicitly.
        """
        from repro.inference.infer import infer

        if session_id is None:
            session_id = f"session{len(self._sessions)}"
        if session_id in self._sessions:
            raise InferenceError(f"session {session_id!r} already open")
        if self._share_executor:
            infer_kwargs.setdefault("executor", self.executor)
        engine = infer(model, **infer_kwargs)
        self._sessions[session_id] = StreamSession(session_id, engine)
        return session_id

    def close(self, session_id: str) -> List[Distribution]:
        """Close a session, returning every posterior it produced.

        A session running on a worker-resident executor releases its
        shards from the shared pool, so closed sessions do not
        accumulate worker memory.
        """
        session = self._session(session_id)
        del self._sessions[session_id]
        if isinstance(session.state, ResidentPopulation):
            session.state.release()
        return session.outputs

    def shutdown(self) -> Dict[str, List[Distribution]]:
        """Close every open session; returns their produced posteriors.

        The executor itself is left alive — it may be shared with other
        servers or engines through the spec cache; release it with
        :func:`~repro.exec.executor.shutdown_executors` (or its own
        ``close()``) when the process is done with it.
        """
        return {
            session_id: self.close(session_id)
            for session_id in list(self._sessions)
        }

    def _session(self, session_id: str) -> StreamSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise InferenceError(f"no open session {session_id!r}")

    # ------------------------------------------------------------------
    # input / output
    # ------------------------------------------------------------------
    def submit(self, session_id: str, obs: Any) -> None:
        """Queue one observation for a session."""
        self._session(session_id).pending.append((self._arrivals, obs))
        self._arrivals += 1

    def submit_many(self, session_id: str, observations: Any) -> None:
        for obs in observations:
            self.submit(session_id, obs)

    def outputs(self, session_id: str) -> List[Distribution]:
        """All posteriors a session has produced so far."""
        return list(self._session(session_id).outputs)

    def latest(self, session_id: str) -> Optional[Distribution]:
        """The most recent posterior of a session, or None."""
        outputs = self._session(session_id).outputs
        return outputs[-1] if outputs else None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    @property
    def backlog(self) -> int:
        """Total pending observations across all sessions."""
        return sum(s.backlog for s in self._sessions.values())

    def tick(self) -> int:
        """One scheduling round; returns the number of steps performed.

        ``round_robin`` advances each ready session once; ``as_ready``
        processes the single globally oldest pending observation.

        A session whose ``step_once`` raises is *evicted* before the
        error propagates: its worker-resident shards (if any) are
        released from the shared persistent pool, so a failing session
        never strands shards — or worker memory — in the executor that
        every other session shares.
        """
        self._queue_depth.observe(float(self.backlog))
        started = perf_counter()
        try:
            if self.policy == "round_robin":
                ready = [s for s in self._sessions.values() if s.pending]
                for session in ready:
                    self._step_session(session)
                return len(ready)
            oldest: Optional[StreamSession] = None
            for session in self._sessions.values():
                if session.pending and (
                    oldest is None or session.pending[0][0] < oldest.pending[0][0]
                ):
                    oldest = session
            if oldest is None:
                return 0
            self._step_session(oldest)
            return 1
        finally:
            elapsed_ms = (perf_counter() - started) * 1e3
            self._tick_latency.observe(elapsed_ms)
            if TELEMETRY.enabled:
                TELEMETRY.recorder.record("server_tick", elapsed_ms)

    def _step_session(self, session: StreamSession) -> Distribution:
        """Advance one session; retry once from checkpoint, then evict.

        A session whose worker-resident state fails mid-step (worker
        hang past the deadline, crash loop, poisoned population) is
        retried **once** from the executor's coordinator-side
        checkpoints before eviction — the failing step re-runs in full,
        so the posterior stream is unbroken and other sessions never
        see the failure. Only ordinary exceptions evict: a
        ``KeyboardInterrupt`` mid-step is not a failed session, and
        destroying its produced posteriors on an interrupt would be
        worse than the shard leak being fixed.
        """
        resident = isinstance(session.state, ResidentPopulation)
        if resident:
            # step_once pops the observation *before* stepping and the
            # engine draws ancestors before the barrier: snapshot both
            # so a retry replays the identical step.
            pending_item = session.pending[0] if session.pending else None
            point = session.engine.rewind_point()
        try:
            dist = session.step_once()
        except Exception:
            if not resident:
                self._evict(session.session_id)
                raise
            try:
                dist = self._retry_session(session, pending_item, point)
            except Exception:
                self._evict(session.session_id)
                raise
        self._processed += 1
        self._step_latency.observe(session.last_step_ms)
        if TELEMETRY.enabled:
            TELEMETRY.recorder.record("server_step", session.last_step_ms)
        return dist

    def _retry_session(
        self,
        session: StreamSession,
        pending_item: Optional[Tuple[int, Any]],
        point: Any,
    ) -> Distribution:
        """Rebuild a session's resident state from checkpoints; re-step.

        The engine recovers its shards from the executor's checkpoint +
        oplog (no worker involved) and rewinds its RNG and diagnostics
        to ``point`` (``engine.recover_resident``), the shards are
        loaded back into the pool under a fresh key, and the popped
        observation is pushed back to the head of the queue — the
        retried step is bit-identical to what the failed one should have
        produced.
        """
        population = session.state
        shards = session.engine.recover_resident(population, point)
        if pending_item is not None and (
            not session.pending or session.pending[0] is not pending_item
        ):
            # step_once popped the observation before failing: push it
            # back so the retried step consumes the same input.
            session.pending.appendleft(pending_item)
        session.state = ResidentPopulation.create(
            population.executor, session.engine, shards
        )
        session.retries += 1
        count_event("repro_session_retries_total")
        return session.step_once()

    def _evict(self, session_id: str) -> None:
        """Drop a failed session, releasing any worker-resident shards."""
        session = self._sessions.pop(session_id, None)
        if session is None:
            return
        self._evicted += 1
        count_event("repro_session_evictions_total")
        if isinstance(session.state, ResidentPopulation):
            try:
                session.state.release()
            except Exception:
                # Releasing is best-effort on the error path: the
                # original failure is the one the caller must see.
                pass

    def drain(self) -> int:
        """Run scheduling rounds until no session has pending input."""
        total = 0
        while True:
            done = self.tick()
            if done == 0:
                return total
            total += done

    def stats(self) -> Dict[str, Any]:
        """Server-level counters plus per-session progress.

        When the shared executor supervises persistent workers, its
        restart bookkeeping (lifetime revivals, per-slot consecutive
        failures, budget) rides along under ``"workers"``.
        """
        stats: Dict[str, Any] = {
            "sessions": len(self._sessions),
            "processed": self._processed,
            "evicted": self._evicted,
            "backlog": self.backlog,
            "per_session": {
                sid: {
                    "steps": s.steps,
                    "backlog": s.backlog,
                    "retries": s.retries,
                    "last_step_ms": s.last_step_ms,
                }
                for sid, s in self._sessions.items()
            },
        }
        restart_stats = getattr(self.executor, "restart_stats", None)
        if restart_stats is not None:
            stats["workers"] = restart_stats()
        return stats

    def metrics_snapshot(self) -> Dict[str, Any]:
        """SLO view of the server: latency quantiles, gauges, queue depth.

        Quantiles (p50/p95/p99) are derived from the fixed-bucket
        latency histograms (:meth:`~repro.obs.registry.Histogram.quantile`),
        so two snapshots taken at different times can be compared
        directly. Per-session histograms are local to each session — no
        unbounded label cardinality reaches the metrics registry — and
        their full bucket data rides along under ``"histogram"`` for
        offline analysis.
        """
        return {
            "sessions": {"active": len(self._sessions), "evicted": self._evicted},
            "processed": self._processed,
            "backlog": self.backlog,
            "tick_ms": _latency_summary(self._tick_latency),
            "step_ms": _latency_summary(self._step_latency),
            "queue_depth": {
                "mean": self._queue_depth.mean,
                "p95": self._queue_depth.quantile(0.95),
                "ticks": self._queue_depth.count,
            },
            "per_session": {
                sid: dict(
                    _latency_summary(s.latency),
                    backlog=s.backlog,
                    steps=s.steps,
                    histogram=s.latency.snapshot_value(),
                )
                for sid, s in self._sessions.items()
            },
        }

    def __len__(self) -> int:
        return len(self._sessions)

    def __repr__(self) -> str:
        return (
            f"StreamServer(policy={self.policy!r}, sessions={len(self._sessions)}, "
            f"executor={self.executor!r})"
        )
