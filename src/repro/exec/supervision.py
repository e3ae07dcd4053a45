"""Supervision vocabulary for the persistent executor.

The failure taxonomy of supervised worker execution, plus the validated
environment knobs that configure it. Kept dependency-free (only
:mod:`repro.errors`) so both the executor and the fault-injection layer
can import it without cycles.

Failure classes — each maps to a ``reason`` label on the
``repro_worker_restarts_total`` counter:

* ``crash``  — the worker process died (pipe EOF / broken pipe).
* ``timeout`` — a command exceeded the step deadline
  (:class:`WorkerTimeout`); the coordinator SIGKILLs the worker first,
  so recovery is identical to a crash.
* ``ring``   — a reply could not be resolved from the shared-memory
  ring (:class:`RingFault`): corrupted descriptors, truncated reads.
  The transport state of that worker is untrusted, so it is killed and
  revived like a crash.

When one slot fails repeatedly without an intervening success, the
restart budget trips (:class:`RestartBudgetExhausted`) and the engines
degrade the stream off the persistent pool entirely — see
``InferenceEngine._degrade_resident``.

Environment knobs (all validated here, mirroring ``REPRO_SHM_BYTES``):

* ``REPRO_STEP_TIMEOUT_S``   — per-command deadline in seconds;
  unset/``0`` disables deadlines (the default).
* ``REPRO_RESTART_BUDGET``   — consecutive failed revivals per worker
  slot before the circuit breaker trips (default 3).
* ``REPRO_CHECKPOINT_EVERY`` — committed steps between checkpoint
  refreshes (default 8).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import InferenceError

__all__ = [
    "WorkerTimeout",
    "RingFault",
    "RestartBudgetExhausted",
    "env_step_timeout_s",
    "env_restart_budget",
    "env_checkpoint_every",
]


class WorkerTimeout(InferenceError):
    """A persistent worker missed its per-command deadline."""


class RingFault(InferenceError):
    """A reply could not be resolved from a worker's shared-memory ring."""


class RestartBudgetExhausted(InferenceError):
    """A worker slot failed more consecutive revivals than its budget.

    The signal that the persistent pool cannot serve this stream: the
    engines catch it, reassemble the population from the coordinator's
    checkpoints, and continue on the serial executor.
    """


def _env_number(name: str, caster, minimum):
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = caster(raw)
    except ValueError:
        raise InferenceError(
            f"{name} must be a {caster.__name__}, got {raw!r}"
        )
    if value < minimum:
        raise InferenceError(
            f"{name} must be >= {minimum}, got {raw!r}"
        )
    return value


def env_step_timeout_s(default: Optional[float] = None) -> Optional[float]:
    """``REPRO_STEP_TIMEOUT_S``: positive seconds, or None when disabled."""
    value = _env_number("REPRO_STEP_TIMEOUT_S", float, 0.0)
    if value is None:
        return default
    return value if value > 0 else None


def env_restart_budget(default: int = 3) -> int:
    """``REPRO_RESTART_BUDGET``: consecutive revivals allowed per slot."""
    value = _env_number("REPRO_RESTART_BUDGET", int, 0)
    return default if value is None else value


def env_checkpoint_every(default: int = 8) -> int:
    """``REPRO_CHECKPOINT_EVERY``: committed steps between checkpoints."""
    value = _env_number("REPRO_CHECKPOINT_EVERY", int, 1)
    return default if value is None else value
