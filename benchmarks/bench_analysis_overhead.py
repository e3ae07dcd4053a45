"""Registration/routing latency of analysis-first routing.

``infer(..., backend="auto")`` consults the static analysis before the
vectorized registries. This benchmark measures what that costs:

* **cold verdict** — one uncached static analysis per model (the
  analysis only walks the step function's AST; it never runs the
  model).
* **warm routing** — the per-``infer()`` cost of ``backend="auto"``
  once the analysis cache is hot, vs ``backend="vectorized"`` (registry
  lookup only). Auto adds one cache hit + one metric increment per
  call; the bound asserts it stays within tens of microseconds.

The measured numbers go to the "Static analysis" table in
``EXPERIMENTS.md``, which also keeps the recorded comparison with the
empirical probe the analysis replaced.
"""

import time

from repro.analysis import analyze_model
from repro.analysis.routing import analysis_for, clear_analysis_cache
from repro.bench import KalmanModel, RobotModel
from repro.bench.models import CoinModel, MixedFragmentModel, OutlierModel
from repro.inference import infer

from conftest import emit

#: (name, model factory)
MODELS = [
    ("kalman", KalmanModel),
    ("coin", CoinModel),
    ("outlier", OutlierModel),
    ("mixed_one", lambda: MixedFragmentModel(realize="one")),
    ("robot", RobotModel),
]

#: ceiling on the warm `backend="auto"` routing premium per infer()
#: call, in milliseconds. Measured ~0.01-0.05 ms (a dict lookup plus a
#: counter bump); the bar leaves room for noisy shared runners.
MAX_WARM_AUTO_PREMIUM_MS = 2.0


def _time_ms(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - t0) * 1000.0)
    return best


def test_cold_verdict_latency():
    """One uncached static verdict per model."""
    rows = []
    for name, factory in MODELS:
        rows.append((name, _time_ms(lambda: analyze_model(factory()), repeats=5)))
        assert analyze_model(factory()).conclusive
    emit("cold verdict latency (ms, best of 5):")
    emit(f"{'model':>12} {'analysis':>10}")
    for name, a_ms in rows:
        emit(f"{name:>12} {a_ms:>10.2f}")


def test_warm_auto_routing_premium():
    """backend="auto" vs backend="vectorized" with a hot analysis cache."""
    model_factory = KalmanModel
    analysis_for(model_factory())  # warm the cache

    def build(backend):
        infer(model_factory(), n_particles=100, method="sds", backend=backend, seed=0)

    vect_ms = _time_ms(lambda: build("vectorized"), repeats=20)
    auto_ms = _time_ms(lambda: build("auto"), repeats=20)
    premium = auto_ms - vect_ms
    emit(
        f"warm engine construction: vectorized {vect_ms:.3f} ms, "
        f"auto {auto_ms:.3f} ms -> premium {premium:+.3f} ms"
    )
    assert premium < MAX_WARM_AUTO_PREMIUM_MS


def test_cold_auto_registration_latency():
    """First-ever `backend="auto"` call per model configuration: the one
    call that pays for the analysis."""
    rows = []
    for name, factory in MODELS:
        clear_analysis_cache()
        cold_ms = _time_ms(
            lambda: infer(
                factory(), n_particles=100, method="sds", backend="auto", seed=0
            ),
            repeats=3,
        )
        warm_ms = _time_ms(
            lambda: infer(
                factory(), n_particles=100, method="sds", backend="auto", seed=0
            ),
            repeats=3,
        )
        rows.append((name, cold_ms, warm_ms))
    emit("auto-backend engine construction (ms, best of 3):")
    emit(f"{'model':>12} {'cold':>10} {'warm':>10}")
    for name, cold_ms, warm_ms in rows:
        emit(f"{name:>12} {cold_ms:>10.2f} {warm_ms:>10.2f}")
