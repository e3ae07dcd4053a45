"""Step-phase span tracing with a disabled fast path.

One inference step is a fixed pipeline — model eval, weight merge,
resample barrier (exchange-plan build + particle migration for
worker-resident populations) — and this module times those phases as
*spans*: named durations recorded into per-phase histograms of the
metrics registry plus a small ring of recent raw spans for inspection.

The cost contract:

* **Disabled** (the default), instrumentation is a single attribute
  check with no allocation: call sites do
  ``timer = TELEMETRY.step_timer()`` and get the shared
  :data:`NULL_TIMER` singleton whose ``mark`` is a no-op, or they test
  ``TELEMETRY.enabled`` directly. Nothing is created per step.
* **Enabled**, a phase mark is two ``perf_counter`` calls, one cached
  dict lookup, and one histogram observe — microseconds against step
  times measured in milliseconds (the measured overhead table lives in
  ``EXPERIMENTS.md``).

Worker-resident execution (``processes-persistent:N``) cannot record
into the coordinator's registry directly: workers accumulate
``(phase, duration_ms)`` pairs in a per-worker buffer that ships back
piggybacked on the existing per-step reply (through the
:class:`~repro.exec.shm.ShmRing` or pipe like every other reply field),
and the engine folds them into the registry at the merge point — see
:meth:`SpanRecorder.record_shipped`.

Enabling is process-wide (:func:`enable_telemetry` /
:func:`disable_telemetry`) because the engines, executors, and servers
being traced share one process; the :func:`telemetry` context manager
scopes it for tests and benchmarks.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Deque, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
    default_registry,
)

__all__ = [
    "Span",
    "SpanRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "StepTimer",
    "NULL_TIMER",
    "Telemetry",
    "TELEMETRY",
    "enable_telemetry",
    "disable_telemetry",
    "telemetry",
    "PHASE_HISTOGRAM",
]

#: registry histogram fed by every span: one time series per phase label.
PHASE_HISTOGRAM = "repro_step_phase_ms"


class Span(NamedTuple):
    """One recorded phase duration: ``(phase, duration_ms)``.

    A named tuple: it unpacks like the ``(phase, duration_ms)`` pairs
    that worker processes ship back, and it pickles, and rebuilds from
    its items (``Span._make``), as a ``Span``.
    """

    phase: str
    duration_ms: float


class SpanRecorder:
    """Aggregates spans into per-phase registry histograms.

    The recorder caches the :class:`~repro.obs.registry.Histogram` per
    phase name, so the steady-state cost of a span is one dict get and
    one observe. ``recent`` keeps the last ``keep`` raw spans (a bounded
    deque) for debugging and tests; the histograms are the durable
    record.
    """

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        keep: int = 256,
        buckets=DEFAULT_LATENCY_BUCKETS_MS,
    ):
        self.registry = registry if registry is not None else default_registry()
        self.buckets = buckets
        self.recent: Deque[Span] = deque(maxlen=keep)
        self._histograms: Dict[str, Histogram] = {}

    def _histogram(self, phase: str) -> Histogram:
        hist = self._histograms.get(phase)
        if hist is None:
            hist = self.registry.histogram(
                PHASE_HISTOGRAM,
                labels={"phase": phase},
                help="step-pipeline phase duration",
                buckets=self.buckets,
            )
            self._histograms[phase] = hist
        return hist

    def record(self, phase: str, duration_ms: float) -> None:
        """Record one completed phase span."""
        self._histogram(phase).observe(duration_ms)
        self.recent.append(Span(phase, duration_ms))

    def record_shipped(self, spans: Iterable[Tuple[str, float]]) -> None:
        """Fold spans shipped back from a worker process into this registry."""
        for phase, duration_ms in spans:
            self.record(phase, duration_ms)

    def phases(self) -> List[str]:
        """Phase names seen so far, sorted."""
        return sorted(self._histograms)


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    ``enabled`` is False, so call sites that need more than a plain
    span — e.g. a conditional buffer allocation — can gate on one
    attribute check; call sites that only record can call
    unconditionally and still pay nothing but the method dispatch.
    """

    enabled = False

    def record(self, phase: str, duration_ms: float) -> None:
        pass

    def record_shipped(self, spans) -> None:
        pass

    def phases(self) -> List[str]:
        return []


#: the shared disabled recorder; never holds state, safe to share.
NULL_RECORDER = NullRecorder()


class StepTimer:
    """Sequential phase segmentation of one step.

    The step pipelines are straight-line code, so phases are marked by
    *boundaries*: ``mark("model_eval")`` records the time since the
    previous mark (or construction) under that phase and restarts the
    clock. ``total`` records the whole span since construction — the
    end-to-end step latency.
    """

    __slots__ = ("recorder", "_start", "_last")

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._start = self._last = perf_counter()

    def mark(self, phase: str) -> None:
        now = perf_counter()
        self.recorder.record(phase, (now - self._last) * 1e3)
        self._last = now

    def total(self, phase: str) -> None:
        self.recorder.record(phase, (perf_counter() - self._start) * 1e3)


class _NullStepTimer:
    """The disabled timer: shared singleton, no clock reads."""

    __slots__ = ()

    def mark(self, phase: str) -> None:
        pass

    def total(self, phase: str) -> None:
        pass


NULL_TIMER = _NullStepTimer()


class Telemetry:
    """Process-wide telemetry switch: one attribute check on hot paths.

    ``TELEMETRY.enabled`` is the only thing instrumented code reads per
    step when tracing is off. The object identity is stable (module
    singleton), so ``from repro.obs import TELEMETRY`` imports stay
    valid across enable/disable — only the fields mutate.
    """

    __slots__ = ("enabled", "recorder")

    def __init__(self):
        self.enabled = False
        self.recorder = NULL_RECORDER

    def step_timer(self):
        """A :class:`StepTimer` when enabled, the shared no-op otherwise."""
        if self.enabled:
            return StepTimer(self.recorder)
        return NULL_TIMER


#: the singleton every instrumentation site imports.
TELEMETRY = Telemetry()


def enable_telemetry(
    registry: Optional[MetricsRegistry] = None, keep: int = 256
) -> SpanRecorder:
    """Turn on step-phase tracing; returns the live :class:`SpanRecorder`.

    ``registry`` defaults to the process-global one
    (:func:`repro.obs.registry.default_registry`). Worker processes of a
    persistent executor do *not* need this call — their spans are
    collected per step command and shipped back to the coordinator,
    which records them here.
    """
    recorder = SpanRecorder(registry, keep=keep)
    TELEMETRY.recorder = recorder
    TELEMETRY.enabled = True
    return recorder


def disable_telemetry() -> None:
    """Turn off step-phase tracing (the default state)."""
    TELEMETRY.enabled = False
    TELEMETRY.recorder = NULL_RECORDER


@contextmanager
def telemetry(registry: Optional[MetricsRegistry] = None, keep: int = 256):
    """Scoped tracing: enabled inside the block, prior state restored after.

    ::

        with telemetry() as recorder:
            run_stream(engine, data)
        print(recorder.phases())
    """
    previous = (TELEMETRY.enabled, TELEMETRY.recorder)
    recorder = enable_telemetry(registry, keep=keep)
    try:
        yield recorder
    finally:
        TELEMETRY.enabled, TELEMETRY.recorder = previous
