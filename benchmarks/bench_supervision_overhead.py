"""Supervision overhead: disabled fault hooks must cost (close to) nothing.

ISSUE 9's robustness machinery — per-command deadlines, restart
budgets, fault-injection hooks in the worker loop and the transport —
lives on the persistent executor's hot path. The contract mirrors the
telemetry switch: with no fault plan installed and no deadline
configured, the supervised build must step at the pre-supervision
build's latency.

* the **disabled** sweep re-measures the committed ``BENCH_PR7.json``
  latency cells (``pf`` and ``pf@scalar@processes-persistent:4`` on
  the Fig. 2 HMM at 10k particles) with faults off and deadlines
  unset, and writes
  ``bench-supervision.json``; CI gates it against the committed
  baseline with ``check_perf_regression.py --threshold 0.02`` — the
  supervised build may not regress more than 2% (drift-corrected)
  against the pre-supervision build.
* the **armed** run measures the same persistent cell with a 30 s step
  deadline configured (supervision active, never firing) and reports
  the overhead factor for EXPERIMENTS.md, with a loose in-test bound so
  a pathological deadline-bookkeeping cost fails here, not in
  production.

Override the output path with ``REPRO_SUPERVISION_BENCH_JSON``.
"""

import os

import pytest

from repro.bench import (
    HmmModel,
    format_sweep,
    kalman_data,
    latency_sweep,
    sweep_records,
    write_bench_json,
)
from repro.exec.executor import shutdown_executors
from repro.faults.plan import FAULTS

from conftest import emit

PARTICLES = 10_000
WORKERS = 4
MULTICORE = (os.cpu_count() or 1) >= 2
SPECS = ["pf", f"pf@scalar@processes-persistent:{WORKERS}"]
#: ceiling on the armed-deadline overhead factor for the persistent
#: cell. The measured factor is ~1.0 (the deadline adds one monotonic()
#: read and a dict insert per command); the bar leaves room for noisy
#: shared runners while catching a pathological cost.
MAX_ARMED_OVERHEAD = 0.50

_RECORDS = []


@pytest.fixture(scope="module")
def hmm_data(bench_config):
    return kalman_data(
        max(6, bench_config["sweep_steps"] // 5), seed=42,
        prior_var=1.0, motion_var=1.0, obs_var=1.0,
    )


def test_disabled_supervision_sweep(benchmark, hmm_data):
    """The gated cells: supervision compiled in, switched off."""
    assert not FAULTS.enabled, (
        "the overhead gate measures the disabled state; unset "
        "REPRO_FAULT_PLAN for this benchmark"
    )
    assert not os.environ.get("REPRO_STEP_TIMEOUT_S", "").strip(), (
        "the overhead gate measures the no-deadline state; unset "
        "REPRO_STEP_TIMEOUT_S for this benchmark"
    )

    def sweep():
        return latency_sweep(
            HmmModel, hmm_data, particle_counts=[PARTICLES],
            methods=SPECS, runs=1,
        )

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _RECORDS.extend(
        sweep_records(result, "hmm", extra={"benchmark": "persistent_speedup"})
    )
    emit(format_sweep(
        result,
        f"Fig. 2 HMM step latency (ms) at {PARTICLES} particles, "
        "supervision disabled (the 2% overhead gate cells)",
    ))


def test_armed_deadline_overhead(hmm_data):
    """A configured-but-never-firing deadline stays in the noise."""
    spec = f"pf@scalar@processes-persistent:{WORKERS}"

    def measure(timeout):
        # Spec-cached executors are built once: recycle the cache so
        # the env knob is re-read by a fresh pool.
        shutdown_executors()
        if timeout is None:
            os.environ.pop("REPRO_STEP_TIMEOUT_S", None)
        else:
            os.environ["REPRO_STEP_TIMEOUT_S"] = str(timeout)
        try:
            result = latency_sweep(
                HmmModel, hmm_data, particle_counts=[PARTICLES],
                methods=[spec], runs=1,
            )
            return result.get(spec, PARTICLES).median
        finally:
            os.environ.pop("REPRO_STEP_TIMEOUT_S", None)
            shutdown_executors()

    off = measure(None)
    armed = measure(30.0)
    factor = armed / off
    _RECORDS.append({
        "benchmark": "supervision_overhead",
        "model": "hmm",
        "spec": f"{spec}@deadline=30",
        "particles": PARTICLES,
        "metric": "latency_ms",
        "median_ms": armed,
    })
    emit(
        f"persistent step latency at {PARTICLES} particles: "
        f"{off:.2f} ms/step deadline off, {armed:.2f} ms/step armed "
        f"({factor:.3f}x)"
    )
    if MULTICORE:
        if factor > 1 + MAX_ARMED_OVERHEAD:
            # one re-measure absorbs transient load on shared runners
            armed = measure(30.0)
            factor = armed / off
            emit(f"after re-measure: {factor:.3f}x")
        assert factor <= 1 + MAX_ARMED_OVERHEAD, (
            f"armed step deadline costs {factor:.2f}x; the supervision "
            "wait loop should be within noise of the blocking wait"
        )
    else:
        emit("single-core machine: the armed-overhead bar is asserted in CI.")


def test_write_bench_json(bench_config):
    """Persist the supervision cells for the 2% CI overhead gate."""
    if not _RECORDS:
        pytest.skip("no sweep ran in this session (tests were deselected)")
    path = os.environ.get(
        "REPRO_SUPERVISION_BENCH_JSON", "bench-supervision.json"
    )
    write_bench_json(
        path,
        _RECORDS,
        meta={
            "benchmark": "supervision_overhead",
            "supervision": "disabled",
            "sweep_steps": bench_config["sweep_steps"],
            "particles": PARTICLES,
            "workers": WORKERS,
        },
    )
    emit(f"wrote {len(_RECORDS)} supervision-overhead records to {path}")
