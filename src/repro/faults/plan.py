"""Deterministic, seedable fault injection for persistent execution.

Supervised execution (deadlines, restart budgets, the degradation to
serial) is only trustworthy if every recovery path runs in CI instead
of being discovered in an incident. This module is the chaos driver: a
:class:`FaultPlan` describes *exactly* which worker fails, how, and at
which committed step — so a failing run is reproducible byte for byte,
and the bit-identity contract ("any executor reproduces the serial
posterior") can be asserted *through* the failure.

Fault kinds
-----------

``crash``
    the worker process ``os._exit``\\ s on its Nth ``step`` command —
    the SIGKILL-mid-burst scenario of the PR-3 recovery tests, made
    deterministic.
``hang``
    the worker sleeps ``seconds`` before executing its Nth step — a
    deadlocked ring or runaway model step. With a step deadline
    configured the coordinator SIGKILLs and revives it; without one the
    reply is simply late.
``delay``
    like ``hang`` but intended to stay *below* the deadline: the
    supervised path must tolerate slow workers without restarting them.
``error``
    the worker raises on its Nth step, producing an ``("err", ...)``
    reply — poisons the population, which is what drives the
    :class:`~repro.exec.server.StreamServer` retry-from-checkpoint path.
``ring_corrupt``
    the coordinator's next step reply from this worker is treated as a
    corrupted shared-memory read (raises
    :class:`RingCorruption` inside ``recv_reply``; the executor
    converts it to a ring fault and revives the worker).
``ring_exhaust``
    forces every subsequent array park on the affected ring to fall
    back inline (``ShmRing.fault_exhausted``): worker-side on the reply
    ring from step N on, coordinator-side on the command ring of a
    matching spawn generation. With ``gen=1`` this exhausts the command
    ring *during revival replay* — the checkpoint shards ship pickled,
    and recovery must stay bit-identical.
``spawn_fail``
    respawned worker processes of generations ``gen .. gen+count-1``
    exit before the hello handshake — the crash-loop that exhausts a
    restart budget.

Generations make crash faults revival-safe: each fault names the worker
*process generation* it applies to (0 = the initially spawned process,
1 = the first respawn, ...), so a ``crash`` at step 3 does not re-fire
when the revived generation replays the oplog past step 3.

Activation mirrors :data:`repro.obs.spans.TELEMETRY`: hooks compiled
into the executor check ``FAULTS.enabled`` — a single attribute read —
and the disabled state passes no fault state into workers at all.
Enable with :func:`install_fault_plan` / the :func:`fault_plan` context
manager, or export ``REPRO_FAULT_PLAN`` (a plan spec, see
:meth:`FaultPlan.parse`) before the process starts — the CI chaos job's
switch.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import InferenceError

__all__ = [
    "Fault",
    "FaultPlan",
    "FaultSwitch",
    "FAULTS",
    "RingCorruption",
    "InjectedFault",
    "WorkerFaultState",
    "CoordinatorFaultState",
    "install_fault_plan",
    "clear_fault_plan",
    "fault_plan",
    "load_env_plan",
]

#: fault kinds executed inside the worker process.
WORKER_KINDS = ("crash", "hang", "delay", "error", "ring_exhaust", "spawn_fail")
#: fault kinds executed on the coordinator side of the pipe.
COORDINATOR_KINDS = ("ring_corrupt", "ring_exhaust")
KINDS = ("crash", "hang", "delay", "error", "ring_corrupt", "ring_exhaust", "spawn_fail")

#: kinds that require a step number (fire on the worker's Nth step op).
_STEPPED = ("crash", "hang", "delay", "error", "ring_corrupt", "ring_exhaust")


class InjectedFault(RuntimeError):
    """The exception an ``error`` fault raises inside a worker."""


class RingCorruption(RuntimeError):
    """Raised by a ``ring_corrupt`` fault while resolving a reply."""


class Fault:
    """One deterministic fault: kind, target worker, firing condition."""

    __slots__ = ("kind", "worker", "step", "seconds", "gen", "count")

    def __init__(
        self,
        kind: str,
        worker: int,
        step: int = 1,
        seconds: float = 0.0,
        gen: int = 0,
        count: int = 1,
    ):
        if kind not in KINDS:
            raise InferenceError(
                f"unknown fault kind {kind!r}; choose from {KINDS}"
            )
        if int(worker) < 0:
            raise InferenceError("fault worker index must be non-negative")
        if kind in _STEPPED and int(step) < 1:
            raise InferenceError(f"{kind} fault needs a step >= 1, got {step}")
        if float(seconds) < 0:
            raise InferenceError("fault seconds must be non-negative")
        if int(gen) < 0:
            raise InferenceError("fault generation must be non-negative")
        if int(count) < 1:
            raise InferenceError("fault count must be at least 1")
        self.kind = kind
        self.worker = int(worker)
        self.step = int(step)
        self.seconds = float(seconds)
        self.gen = int(gen)
        self.count = int(count)

    def matches_gen(self, generation: int) -> bool:
        """Does this fault apply to worker-process ``generation``?"""
        if self.kind == "spawn_fail":
            return self.gen <= generation < self.gen + self.count
        return self.gen == generation

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Fault):
            return NotImplemented
        return all(
            getattr(self, field) == getattr(other, field)
            for field in self.__slots__
        )

    def __repr__(self) -> str:
        extras = []
        if self.kind in ("hang", "delay"):
            extras.append(f"seconds={self.seconds}")
        if self.kind == "spawn_fail":
            extras.append(f"count={self.count}")
        extra = (", " + ", ".join(extras)) if extras else ""
        return (
            f"Fault({self.kind!r}, worker={self.worker}, step={self.step}, "
            f"gen={self.gen}{extra})"
        )


class FaultPlan:
    """An ordered collection of :class:`Fault` entries.

    Build programmatically (the chaining helpers), from the compact
    spec DSL (:meth:`parse` — also the ``REPRO_FAULT_PLAN`` format), or
    deterministically at random (:meth:`seeded`).
    """

    def __init__(self, faults: Iterable[Fault] = ()):
        self.faults: List[Fault] = list(faults)

    # -- chaining constructors -----------------------------------------
    def crash(self, worker: int, step: int, gen: int = 0) -> "FaultPlan":
        """Worker ``worker`` exits hard on its ``step``-th step command."""
        self.faults.append(Fault("crash", worker, step, gen=gen))
        return self

    def hang(
        self, worker: int, step: int, seconds: float, gen: int = 0
    ) -> "FaultPlan":
        """Worker sleeps ``seconds`` before executing its Nth step."""
        self.faults.append(Fault("hang", worker, step, seconds=seconds, gen=gen))
        return self

    def delay(
        self, worker: int, step: int, seconds: float, gen: int = 0
    ) -> "FaultPlan":
        """Like :meth:`hang`, named for below-deadline slowness."""
        self.faults.append(Fault("delay", worker, step, seconds=seconds, gen=gen))
        return self

    def error(self, worker: int, step: int, gen: int = 0) -> "FaultPlan":
        """Worker raises :class:`InjectedFault` on its Nth step."""
        self.faults.append(Fault("error", worker, step, gen=gen))
        return self

    def corrupt_ring(self, worker: int, step: int, gen: int = 0) -> "FaultPlan":
        """The coordinator's Nth step reply from ``worker`` reads corrupt."""
        self.faults.append(Fault("ring_corrupt", worker, step, gen=gen))
        return self

    def exhaust_ring(self, worker: int, step: int = 1, gen: int = 0) -> "FaultPlan":
        """Force ring overflow fallbacks for ``worker`` from step N on."""
        self.faults.append(Fault("ring_exhaust", worker, step, gen=gen))
        return self

    def fail_respawn(self, worker: int, count: int = 1) -> "FaultPlan":
        """The next ``count`` respawns of ``worker`` die before hello."""
        self.faults.append(Fault("spawn_fail", worker, gen=1, count=count))
        return self

    # -- selection ------------------------------------------------------
    def for_worker(self, worker: int) -> List[Fault]:
        """The worker-side faults targeting slot ``worker`` (picklable)."""
        return [
            fault
            for fault in self.faults
            if fault.worker == worker and fault.kind in WORKER_KINDS
        ]

    def coordinator_for(self, worker: int) -> List[Fault]:
        """The coordinator-side faults targeting slot ``worker``."""
        return [
            fault
            for fault in self.faults
            if fault.worker == worker and fault.kind in COORDINATOR_KINDS
        ]

    # -- construction from specs ---------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from the compact DSL, e.g.::

            crash@3:w0;hang@4:w1:10;ring-corrupt@5:w0;spawn-fail:w0:3

        Entries are ``;``-separated. Each is ``kind[@step]`` followed by
        ``:``-separated fields: ``wN`` (worker, required), ``gN``
        (generation, default 0), and a bare number (``seconds`` for
        hang/delay, ``count`` for spawn-fail). Kind names may use ``-``
        for ``_``.
        """
        plan = cls()
        for token in spec.split(";"):
            token = token.strip()
            if not token:
                continue
            head, *fields = token.split(":")
            kind, _, step_text = head.partition("@")
            kind = kind.strip().replace("-", "_")
            step = 1
            if step_text:
                try:
                    step = int(step_text)
                except ValueError:
                    raise InferenceError(
                        f"bad step in fault spec entry {token!r}"
                    )
            worker: Optional[int] = None
            gen: Optional[int] = None
            number: Optional[float] = None
            for field in fields:
                field = field.strip()
                if not field:
                    continue
                if field[0] == "w" and field[1:].isdigit():
                    worker = int(field[1:])
                elif field[0] == "g" and field[1:].isdigit():
                    gen = int(field[1:])
                else:
                    try:
                        number = float(field)
                    except ValueError:
                        raise InferenceError(
                            f"bad field {field!r} in fault spec entry {token!r}"
                        )
            if worker is None:
                raise InferenceError(
                    f"fault spec entry {token!r} names no worker (use wN)"
                )
            if kind == "spawn_fail":
                plan.faults.append(
                    Fault(
                        kind,
                        worker,
                        gen=1 if gen is None else gen,
                        count=1 if number is None else int(number),
                    )
                )
            else:
                plan.faults.append(
                    Fault(
                        kind,
                        worker,
                        step,
                        seconds=0.0 if number is None else float(number),
                        gen=0 if gen is None else gen,
                    )
                )
        return plan

    @classmethod
    def seeded(
        cls,
        seed: int,
        workers: int = 2,
        faults: int = 3,
        steps: Sequence[int] = (2, 12),
        kinds: Sequence[str] = ("crash", "hang", "ring_corrupt"),
        hang_seconds: float = 10.0,
    ) -> "FaultPlan":
        """A deterministic random plan: same seed, same faults.

        Draws ``faults`` entries with kind, worker, and step chosen by a
        seeded generator — the CI chaos job's way of walking the fault
        space over time without losing reproducibility.
        """
        import numpy as np

        rng = np.random.default_rng(seed)
        plan = cls()
        for _ in range(int(faults)):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            worker = int(rng.integers(0, workers))
            step = int(rng.integers(int(steps[0]), int(steps[1]) + 1))
            seconds = hang_seconds if kind in ("hang", "delay") else 0.0
            plan.faults.append(Fault(kind, worker, step, seconds=seconds))
        return plan

    def __len__(self) -> int:
        return len(self.faults)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.faults == other.faults

    def __repr__(self) -> str:
        return f"FaultPlan({self.faults!r})"


# ----------------------------------------------------------------------
# runtime fault state (hot-path hooks)
# ----------------------------------------------------------------------


class WorkerFaultState:
    """Per-worker-process fault state, evaluated inside the worker loop.

    Constructed from the picklable fault list the coordinator passed in
    the spawn args, filtered to this process's generation. ``on_step``
    is the only hot-path hook: it fires once per ``step`` command.
    """

    __slots__ = ("generation", "faults", "steps")

    def __init__(self, faults: Sequence[Fault], generation: int):
        self.generation = int(generation)
        self.faults = [f for f in faults if f.matches_gen(self.generation)]
        self.steps = 0

    def check_spawn(self) -> None:
        """Die before the hello handshake when a spawn_fail matches."""
        for fault in self.faults:
            if fault.kind == "spawn_fail":
                os._exit(1)

    def on_step(self, ring: Any) -> None:
        """Fire any fault scheduled for this process's next step op."""
        self.steps += 1
        for fault in self.faults:
            if fault.step != self.steps:
                continue
            if fault.kind == "crash":
                os._exit(1)
            elif fault.kind in ("hang", "delay"):
                time.sleep(fault.seconds)
            elif fault.kind == "error":
                raise InjectedFault(
                    f"injected worker error at step {self.steps} "
                    f"(gen {self.generation})"
                )
            elif fault.kind == "ring_exhaust" and ring is not None:
                ring.fault_exhausted = True


class CoordinatorFaultState:
    """Per-slot fault state on the coordinator side of the pipe.

    Attached to a :class:`~repro.exec.executor._WorkerSlot` when the
    active plan has coordinator-side faults for that slot's generation.
    ``note_op`` tags the op of the in-flight command (so only *step*
    replies count toward ``ring_corrupt`` firing steps); ``corrupt``
    raises :class:`RingCorruption` on the matching reply.
    """

    __slots__ = ("faults", "steps", "_pending_step")

    def __init__(self, faults: Sequence[Fault], generation: int):
        self.faults = [
            f
            for f in faults
            if f.kind == "ring_corrupt" and f.gen == int(generation)
        ]
        self.steps = 0
        self._pending_step = False

    def note_op(self, op: str) -> None:
        self._pending_step = op == "step"

    def corrupt(self, value: Any) -> Any:
        if not self._pending_step:
            return value
        self._pending_step = False
        self.steps += 1
        for fault in self.faults:
            if fault.step == self.steps:
                raise RingCorruption(
                    f"injected ring corruption on step reply {self.steps}"
                )
        return value


# ----------------------------------------------------------------------
# activation switch (TELEMETRY pattern)
# ----------------------------------------------------------------------


class FaultSwitch:
    """Process-wide fault-injection switch: one attribute check.

    ``FAULTS.enabled`` is all the executor reads when injection is off;
    the singleton's identity is stable, so imports stay valid across
    install/clear — only the fields mutate.
    """

    __slots__ = ("enabled", "plan")

    def __init__(self):
        self.enabled = False
        self.plan: Optional[FaultPlan] = None


#: the singleton every injection hook imports.
FAULTS = FaultSwitch()


def install_fault_plan(plan: FaultPlan) -> FaultPlan:
    """Activate ``plan`` process-wide (affects newly spawned workers)."""
    if not isinstance(plan, FaultPlan):
        raise InferenceError(
            f"install_fault_plan needs a FaultPlan, got {type(plan).__name__}"
        )
    FAULTS.plan = plan
    FAULTS.enabled = True
    return plan


def clear_fault_plan() -> None:
    """Deactivate fault injection (the default state)."""
    FAULTS.enabled = False
    FAULTS.plan = None


@contextmanager
def fault_plan(plan: FaultPlan):
    """Scoped injection: ``plan`` active inside the block, prior state after.

    ::

        with fault_plan(FaultPlan().crash(0, 3)):
            run_stream(engine, data)
    """
    previous = (FAULTS.enabled, FAULTS.plan)
    install_fault_plan(plan)
    try:
        yield plan
    finally:
        FAULTS.enabled, FAULTS.plan = previous


def load_env_plan(env: Optional[Dict[str, str]] = None) -> Optional[FaultPlan]:
    """Install the plan named by ``REPRO_FAULT_PLAN``, if any.

    The value is either a plan spec (see :meth:`FaultPlan.parse`) or
    ``seed:N`` for :meth:`FaultPlan.seeded`. Called once at import — the
    activation path of the CI chaos job, which exports the variable
    before the test process starts.
    """
    source = os.environ if env is None else env
    spec = source.get("REPRO_FAULT_PLAN", "").strip()
    if not spec:
        return None
    if spec.startswith("seed:"):
        plan = FaultPlan.seeded(int(spec[len("seed:"):]))
    else:
        plan = FaultPlan.parse(spec)
    return install_fault_plan(plan)


load_env_plan()
