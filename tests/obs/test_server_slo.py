"""StreamServer SLO instrumentation: latency histograms and gauges."""

import numpy as np
import pytest

from repro.bench.models import HmmModel
from repro.errors import InferenceError
from repro.exec.population import ResidentPopulation
from repro.exec.server import StreamServer
from repro.obs.registry import MetricsRegistry, default_registry
from repro.obs.spans import PHASE_HISTOGRAM, telemetry
from repro.runtime.node import ProbCtx, ProbNode


class FailingModel(ProbNode):
    def init(self):
        return None

    def step(self, state, obs, ctx: ProbCtx):
        raise InferenceError("broken model")


class StrandedPopulation(ResidentPopulation):
    """A worker-resident population whose pool is gone: its step, its
    recovery from checkpoints and its release all fail."""

    key = 0

    def __init__(self):
        self._released = False
        self.executor = self

    def map_step(self, inp, trace=False):
        raise InferenceError("worker lost")

    def recover_population(self, key):
        raise InferenceError("worker lost")

    def release(self):
        raise OSError("pool already shut down")


def serve_traffic(n_sessions=3, n_obs=4, **server_kwargs):
    server = StreamServer(**server_kwargs)
    rng = np.random.default_rng(0)
    for i in range(n_sessions):
        server.open(HmmModel(), session_id=f"u{i}", seed=i, n_particles=8)
        server.submit_many(f"u{i}", rng.normal(size=n_obs))
    server.drain()
    return server


class TestSessionLatency:
    def test_every_step_is_timed(self):
        server = serve_traffic(n_sessions=2, n_obs=5)
        snap = server.metrics_snapshot()
        assert snap["step_ms"]["count"] == 10
        for sid in ("u0", "u1"):
            per = snap["per_session"][sid]
            assert per["count"] == 5
            assert per["p99_ms"] > 0.0
            assert per["p50_ms"] <= per["p95_ms"] <= per["p99_ms"]
            assert per["histogram"]["count"] == 5
        assert server._sessions["u0"].last_step_ms > 0.0

    def test_tick_latency_and_queue_depth(self):
        server = serve_traffic(n_sessions=2, n_obs=3)
        snap = server.metrics_snapshot()
        # round_robin: 3 productive rounds + 1 empty terminating round
        assert snap["tick_ms"]["count"] == 4
        assert snap["tick_ms"]["p99_ms"] >= snap["tick_ms"]["p50_ms"]
        assert snap["queue_depth"]["ticks"] == 4
        # first round sees the full backlog of 6
        assert snap["queue_depth"]["p95"] >= 2.0

    def test_stats_carries_latency_fields(self):
        server = serve_traffic(n_sessions=1, n_obs=2)
        stats = server.stats()
        assert stats["evicted"] == 0
        assert stats["per_session"]["u0"]["last_step_ms"] > 0.0


class TestEviction:
    def test_eviction_updates_gauge_and_counter(self, fresh_registry):
        server = StreamServer()
        server.open(FailingModel(), session_id="bad", n_particles=4)
        server.submit("bad", 1.0)
        with pytest.raises(InferenceError, match="broken model"):
            server.tick()
        snap = server.metrics_snapshot()
        assert snap["sessions"] == {"active": 0, "evicted": 1}
        counter = default_registry().get("repro_session_evictions_total")
        assert counter is not None and counter.value == 1.0
        # closing a healthy session is not an eviction
        server.open(HmmModel(), session_id="ok", n_particles=4)
        server.close("ok")
        assert server.metrics_snapshot()["sessions"]["evicted"] == 1

    def test_failed_release_is_counted(self, fresh_registry):
        server = StreamServer()
        server.open(HmmModel(), session_id="stranded", n_particles=4)
        server._sessions["stranded"].state = StrandedPopulation()
        server.submit("stranded", 1.0)
        # the session's own failure propagates, not the release's
        with pytest.raises(InferenceError, match="worker lost"):
            server.tick()
        assert server.metrics_snapshot()["sessions"] == {"active": 0, "evicted": 1}
        counter = default_registry().get("repro_session_release_failures_total")
        assert counter is not None and counter.value == 1.0


class TestServerTracing:
    def test_server_phases_reach_the_registry_when_enabled(self):
        reg = MetricsRegistry()
        with telemetry(reg):
            serve_traffic(n_sessions=2, n_obs=3)
        assert reg.get(PHASE_HISTOGRAM, {"phase": "server_step"}).count == 6
        assert reg.get(PHASE_HISTOGRAM, {"phase": "server_tick"}).count == 4

    def test_disabled_tracing_keeps_registry_clean(self, fresh_registry):
        serve_traffic(n_sessions=1, n_obs=2)
        assert fresh_registry.get(PHASE_HISTOGRAM, {"phase": "server_step"}) is None
