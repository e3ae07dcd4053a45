"""Step-phase tracing: the disabled fast path and the live span flow."""

import pickle

import numpy as np
import pytest

from repro.bench.models import HmmModel
from repro.inference.infer import infer
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import (
    NULL_RECORDER,
    NULL_TIMER,
    PHASE_HISTOGRAM,
    TELEMETRY,
    Span,
    SpanRecorder,
    StepTimer,
    disable_telemetry,
    enable_telemetry,
    telemetry,
)
from repro.symbolic.expr import map_leaves, rebuild_tuple

OBS = [0.1, -0.3, 0.7, 0.2, -0.1, 0.4, 0.0, 0.5]


def run_stream(**infer_kwargs):
    engine = infer(HmmModel(), n_particles=24, seed=11, **infer_kwargs)
    state = engine.init()
    for y in OBS:
        _, state = engine.step(state, y)
    if hasattr(state, "release"):
        state.release()


class TestDisabledFastPath:
    def test_disabled_timer_is_the_shared_singleton(self):
        assert not TELEMETRY.enabled
        assert TELEMETRY.step_timer() is NULL_TIMER
        assert TELEMETRY.recorder is NULL_RECORDER
        NULL_TIMER.mark("anything")  # no-ops, no state
        NULL_TIMER.total("anything")

    def test_disabled_run_registers_no_phase_metrics(self, fresh_registry):
        run_stream(method="sds")
        assert fresh_registry.get(PHASE_HISTOGRAM, {"phase": "step"}) is None


class TestRecorder:
    def test_spans_feed_per_phase_histograms(self):
        reg = MetricsRegistry()
        rec = SpanRecorder(reg, keep=4)
        for i in range(6):
            rec.record("model_eval", 1.0 + i)
        rec.record("resample", 0.5)
        assert rec.phases() == ["model_eval", "resample"]
        hist = reg.get(PHASE_HISTOGRAM, {"phase": "model_eval"})
        assert hist.count == 6
        assert len(rec.recent) == 4  # bounded ring

    def test_record_shipped_folds_worker_tuples(self):
        reg = MetricsRegistry()
        rec = SpanRecorder(reg)
        rec.record_shipped([("worker_step", 2.0), ("worker_step", 3.0)])
        hist = reg.get(PHASE_HISTOGRAM, {"phase": "worker_step"})
        assert hist.count == 2
        assert hist.sum == 5.0


class TestSpan:
    def test_pickle_round_trip_keeps_the_type(self):
        span = Span("model_eval", 1.5)
        back = pickle.loads(pickle.dumps(span))
        assert type(back) is Span
        assert back == span
        assert (back.phase, back.duration_ms) == ("model_eval", 1.5)

    def test_map_leaves_rebuilds_a_changed_span(self):
        # An unchanged tuple is shared, so only a changed leaf makes the
        # walk rebuild the Span from its items.
        spans = [Span("model_eval", 1.0), Span("resample", 2.0)]
        doubled = map_leaves(
            spans, lambda leaf: leaf * 2 if isinstance(leaf, float) else leaf
        )
        assert [type(s) for s in doubled] == [Span, Span]
        assert doubled == [Span("model_eval", 2.0), Span("resample", 4.0)]
        assert rebuild_tuple(spans[0], ["a", 3.0]) == Span("a", 3.0)


class TestTelemetrySwitch:
    def test_enable_disable(self):
        rec = enable_telemetry(MetricsRegistry())
        assert TELEMETRY.enabled and TELEMETRY.recorder is rec
        assert isinstance(TELEMETRY.step_timer(), StepTimer)
        disable_telemetry()
        assert not TELEMETRY.enabled
        assert TELEMETRY.step_timer() is NULL_TIMER

    def test_context_manager_restores_prior_state(self):
        assert not TELEMETRY.enabled
        with telemetry(MetricsRegistry()) as rec:
            assert TELEMETRY.enabled and TELEMETRY.recorder is rec
        assert not TELEMETRY.enabled


class TestEngineSpans:
    @pytest.mark.parametrize("kwargs", [
        {"method": "pf"},
        {"method": "sds"},
        {"method": "sds", "backend": "vectorized"},
        {"method": "bds", "backend": "vectorized"},
    ])
    def test_step_phases_recorded(self, kwargs):
        reg = MetricsRegistry()
        with telemetry(reg) as rec:
            run_stream(**kwargs)
        phases = rec.phases()
        assert "model_eval" in phases
        assert "weight_merge" in phases
        assert "step" in phases
        # Every step records exactly one end-to-end span.
        assert reg.get(PHASE_HISTOGRAM, {"phase": "step"}).count == len(OBS)
        # Each step ends in exactly one of the two barrier phases.
        barrier = sum(
            reg.get(PHASE_HISTOGRAM, {"phase": p}).count
            for p in ("resample", "weight_commit")
            if reg.get(PHASE_HISTOGRAM, {"phase": p}) is not None
        )
        assert barrier == len(OBS)

    def test_worker_resident_spans_ship_back(self):
        """processes-persistent workers time their shard steps and the
        coordinator folds the shipped spans into its registry."""
        reg = MetricsRegistry()
        with telemetry(reg) as rec:
            run_stream(method="sds", executor="processes-persistent:2")
        assert "worker_step" in rec.phases()
        hist = reg.get(PHASE_HISTOGRAM, {"phase": "worker_step"})
        # one span per shard per step (default 4 shards)
        assert hist.count == 4 * len(OBS)
        assert hist.sum > 0.0
        # the resample barrier phases of the resident path
        for phase in ("model_eval", "step"):
            assert reg.get(PHASE_HISTOGRAM, {"phase": phase}).count == len(OBS)

    def test_tracing_does_not_change_results(self):
        def posterior_means(**kwargs):
            engine = infer(HmmModel(), n_particles=24, seed=11, method="sds", **kwargs)
            state = engine.init()
            means = []
            for y in OBS:
                dist, state = engine.step(state, y)
                means.append(dist.mean())
            if hasattr(state, "release"):
                state.release()
            return means

        plain = posterior_means(executor="processes-persistent:2")
        with telemetry(MetricsRegistry()):
            traced = posterior_means(executor="processes-persistent:2")
        assert plain == traced
