"""Persistent executors: per-step latency on the Fig. 2 HMM at 10k particles.

`PersistentProcessExecutor` keeps the shards resident in its workers —
per-step traffic is the step input out and per-shard weight/output
vectors back, plus the few particles that migrate at the resample
barrier. The sweep records `pf` serial against
`pf@scalar@processes-persistent:4` at 10,000 particles for the
`BENCH_PR7.json` latency gate, and the transport test measures the
pickled payload bytes the shared-memory rings remove.

Correctness is asserted unconditionally: the persistent executor must
produce the bit-identical posterior to `serial` at a fixed seed — the
shard partition, not the residency, owns the randomness.
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
from repro.exec.executor import PersistentProcessExecutor
from repro.inference import infer
from repro.obs.registry import MetricsRegistry, set_default_registry
from repro.obs.spans import disable_telemetry, enable_telemetry

from conftest import emit

PARTICLES = 10_000
WORKERS = 4

#: perf-trajectory records accumulated by the tests in this module and
#: persisted by :func:`test_write_bench_json` (BENCH_PR7.json lineage).
_RECORDS = []


@pytest.fixture(scope="module")
def hmm_data(bench_config):
    return kalman_data(
        max(6, bench_config["sweep_steps"] // 5), seed=42,
        prior_var=1.0, motion_var=1.0, obs_var=1.0,
    )


def test_persistent_bit_identical(hmm_data):
    """Resident shards reproduce the serial posterior exactly."""
    def run(executor, method):
        engine = infer(
            HmmModel(), n_particles=64, method=method, seed=5, executor=executor
        )
        state = engine.init()
        means = []
        for y in hmm_data.observations:
            dist, state = engine.step(state, y)
            means.append(dist.mean())
        return means

    for method in ("pf", "bds"):
        serial = run("serial", method)
        assert run(f"processes-persistent:{WORKERS}", method) == serial
        assert run("processes-persistent:2", method) == serial


def test_persistent_speedup(benchmark, hmm_data, bench_config):
    spec = f"pf@scalar@processes-persistent:{WORKERS}"

    def sweep():
        return latency_sweep(
            HmmModel, hmm_data, particle_counts=[PARTICLES],
            methods=["pf", spec], runs=1,
        )

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _RECORDS.extend(
        sweep_records(result, "hmm", extra={"benchmark": "persistent_speedup"})
    )
    emit(format_sweep(
        result,
        f"Fig. 2 HMM step latency (ms) at {PARTICLES} particles: "
        f"serial vs the persistent {WORKERS}-worker process executor "
        f"({os.cpu_count()} core(s) visible)",
    ))
    serial = result.get("pf", PARTICLES).median
    persistent = result.get(spec, PARTICLES).median
    emit(f"pf serial                     : {serial:.2f} ms/step")
    emit(f"pf processes-persistent:{WORKERS} : {persistent:.2f} ms/step")


def _bytes_per_step(hmm_data, shm_bytes):
    """Pickled/shm payload bytes per steady step for one ring size.

    Runs a fresh persistent pool with its own metrics registry, skips
    the shard-loading warm-up step (loading legitimately ships the
    payloads once), and averages the transport byte counters over the
    remaining stream.
    """
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    # the pickle path only accounts payload bytes when telemetry is on;
    # enable it for both variants so the comparison is symmetric.
    enable_telemetry(registry)
    executor = PersistentProcessExecutor(workers=WORKERS, shm_bytes=shm_bytes)
    try:
        engine = infer(
            HmmModel(), n_particles=PARTICLES, method="pf",
            backend="vectorized", seed=7, executor=executor,
        )
        state = engine.init()
        _, state = engine.step(state, hmm_data.observations[0])  # warm-up
        registry.reset()
        steps = hmm_data.observations[1:]
        for y in steps:
            _, state = engine.step(state, y)
        counters = registry.snapshot()["counters"]

        def total(name):
            return sum(
                value for key, value in counters.items()
                if key.startswith(name)
            )

        pickled = total("repro_transport_pickled_bytes_total") / len(steps)
        shm = total("repro_transport_shm_bytes_total") / len(steps)
        state.release()
        return pickled, shm
    finally:
        disable_telemetry()
        set_default_registry(previous)
        executor.close()


def test_transport_pickled_bytes_per_step(hmm_data):
    """The zero-copy acceptance, measured: with the command and reply
    rings up, per-step pickled payload bytes collapse versus the
    pickle-only transport (``shm_bytes=0``). Both figures land in the
    perf-trajectory JSON so the regression gate can watch payload bytes
    creep back onto the pickle path."""
    variants = [
        ("ring", PersistentProcessExecutor.DEFAULT_SHM_BYTES),
        ("pickle-only", 0),
    ]
    measured = {}
    for label, shm_bytes in variants:
        pickled, shm = _bytes_per_step(hmm_data, shm_bytes)
        measured[label] = (pickled, shm)
        spec = f"pf@vectorized@processes-persistent:{WORKERS}"
        if shm_bytes == 0:
            spec += "@shm=0"
        _RECORDS.append({
            "benchmark": "persistent_transport",
            "model": "hmm",
            "spec": spec,
            "particles": PARTICLES,
            "metric": "pickled_bytes_per_step",
            "median": pickled,
        })

    emit(
        f"transport payload bytes/step, pf@vectorized at {PARTICLES} "
        f"particles, {WORKERS} workers:"
    )
    emit(f"{'variant':12}  {'pickled B/step':>14}  {'shm B/step':>12}")
    for label, (pickled, shm) in measured.items():
        emit(f"{label:12}  {pickled:14.0f}  {shm:12.0f}")

    ring_pickled, ring_shm = measured["ring"]
    pickle_pickled, _ = measured["pickle-only"]
    assert pickle_pickled > 0, "pickle-only variant must account its payloads"
    assert ring_shm > 0, "ring variant must move payloads over shared memory"
    # the bar: the rings carry the payload traffic; at most a trickle
    # (tiny sub-threshold arrays) may remain inline.
    assert ring_pickled < 0.05 * pickle_pickled, (
        f"ring transport still pickles {ring_pickled:.0f} B/step "
        f"vs {pickle_pickled:.0f} B/step pickle-only"
    )


def test_write_bench_json(bench_config):
    """Persist the perf trajectory collected by the tests above."""
    if not _RECORDS:
        pytest.skip("no sweep ran in this session (tests were deselected)")
    path = os.environ.get(
        "REPRO_PERSISTENT_BENCH_JSON", "bench-persistent-transport.json"
    )
    write_bench_json(
        path,
        _RECORDS,
        meta={
            "benchmark": "persistent_speedup",
            "sweep_steps": bench_config["sweep_steps"],
            "particles": PARTICLES,
            "workers": WORKERS,
        },
    )
    emit(f"wrote {len(_RECORDS)} perf-trajectory records to {path}")
