"""Benchmark harness: the experiments of Section 6.

Four experiment drivers, one per figure family:

* :func:`accuracy_sweep` — Fig. 2a / Fig. 16: final MSE vs particle
  count, with 10%/50%/90% quantiles over repeated runs,
* :func:`latency_sweep` — Fig. 2b / Fig. 17: per-step latency vs
  particle count (quantiles over all steps of all runs),
* :func:`step_latency_profile` — Fig. 18: per-step latency as a function
  of the step index on a long run,
* :func:`memory_profile` — Fig. 19 / Fig. 4: ideal memory (live abstract
  words) per step.

Each driver returns plain data structures; :mod:`repro.bench.reporting`
renders them as the text tables recorded in ``EXPERIMENTS.md``.

Every ``methods`` entry is a *method spec*: a plain engine name
(``"pf"``, ``"sds"``, …), ``"<method>@<backend>"`` selecting an
execution backend, or ``"<method>@<backend>@<executor>"`` additionally
selecting the execution layer — e.g. ``"pf@vectorized"`` runs the
particle filter on the structure-of-arrays engines of
:mod:`repro.vectorized`, ``"pf@scalar@threads:4"`` runs the scalar
particle filter sharded over four threads, and
``"pf@scalar@processes-persistent:4"`` over four worker processes that
keep their shards resident across steps. One sweep can thus compare
substrates and executors. Executor instances named by specs are cached
process-wide; call :func:`repro.exec.executor.shutdown_executors` after
a sweep to release their worker pools.

Every driver also accepts ``engine_kwargs``, a dict forwarded to the
engine constructor, so sweeps can compare engine configurations
(``resampler=``, ``resample_threshold=``, …), not just method/backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.data import Dataset
from repro.errors import InferenceError
from repro.exec.executor import parse_executor
from repro.inference.infer import BACKENDS, infer
from repro.inference.metrics import MseTracker
from repro.runtime.node import ProbNode

__all__ = [
    "Quantiles",
    "SweepResult",
    "ProfileResult",
    "parse_method_spec",
    "run_mse",
    "accuracy_sweep",
    "latency_sweep",
    "step_latency_profile",
    "memory_profile",
    "particles_to_match",
]


def parse_method_spec(spec: str) -> Tuple[str, str, Optional[str]]:
    """Split a ``"method[@backend[@executor]]"`` spec string.

    Returns ``(method, backend, executor)`` with ``backend`` defaulting
    to ``"scalar"`` and ``executor`` to None (the engine's sequential
    default). An empty backend segment (``"pf@@threads:4"``) also means
    scalar, so an executor can be selected without naming a backend.
    """
    parts = spec.split("@")
    if len(parts) > 3:
        raise InferenceError(f"method spec {spec!r} has too many '@' segments")
    method = parts[0]
    backend = parts[1] if len(parts) > 1 and parts[1] else "scalar"
    executor = parts[2] if len(parts) > 2 else None
    if backend not in BACKENDS:
        raise InferenceError(
            f"unknown backend {backend!r} in method spec {spec!r}; "
            f"choose from {sorted(BACKENDS)}"
        )
    if executor is not None:
        parse_executor(executor)  # validate (and warm the shared instance)
    return method, backend, executor


def _build_engine(
    model: ProbNode,
    spec: str,
    n_particles: int,
    seed: int,
    engine_kwargs: Optional[Dict] = None,
):
    method, backend, executor = parse_method_spec(spec)
    kwargs = dict(engine_kwargs or {})
    if executor is not None:
        if "executor" in kwargs and kwargs["executor"] != executor:
            raise InferenceError(
                f"method spec {spec!r} selects executor {executor!r} but "
                f"engine_kwargs selects {kwargs['executor']!r}; pick one"
            )
        kwargs["executor"] = executor
    return infer(
        model,
        n_particles=n_particles,
        method=method,
        seed=seed,
        backend=backend,
        **kwargs,
    )


@dataclass(frozen=True)
class Quantiles:
    """Median with 10% / 90% quantiles, as plotted in the paper."""

    q10: float
    median: float
    q90: float

    @staticmethod
    def of(values: Sequence[float]) -> "Quantiles":
        arr = np.asarray(values, dtype=float)
        q10, median, q90 = np.quantile(arr, [0.1, 0.5, 0.9])
        return Quantiles(float(q10), float(median), float(q90))


@dataclass
class SweepResult:
    """One (method, particle-count) -> quantiles table."""

    metric: str
    particle_counts: List[int]
    methods: List[str]
    cells: Dict[str, Dict[int, Quantiles]] = field(default_factory=dict)

    def get(self, method: str, particles: int) -> Quantiles:
        return self.cells[method][particles]


@dataclass
class ProfileResult:
    """Per-step series, one list per method."""

    metric: str
    steps: List[int]
    methods: List[str]
    series: Dict[str, List[float]] = field(default_factory=dict)


def run_mse(
    model_factory: Callable[[], ProbNode],
    method: str,
    n_particles: int,
    dataset: Dataset,
    seed: int,
    engine_kwargs: Optional[Dict] = None,
) -> float:
    """Final running MSE of one inference run over ``dataset``.

    ``method`` is a method spec (``"pf"`` or ``"pf@vectorized"``);
    ``engine_kwargs`` are forwarded to the engine constructor.
    """
    engine = _build_engine(model_factory(), method, n_particles, seed, engine_kwargs)
    state = engine.init()
    tracker = MseTracker()
    tracker_state = tracker.init()
    mse = 0.0
    for truth, obs in zip(dataset.truths, dataset.observations):
        dist, state = engine.step(state, obs)
        mse, tracker_state = tracker.step(tracker_state, (dist.mean(), truth))
    return mse


def accuracy_sweep(
    model_factory: Callable[[], ProbNode],
    dataset: Dataset,
    particle_counts: Sequence[int],
    methods: Sequence[str] = ("pf", "bds", "sds"),
    runs: int = 20,
    base_seed: int = 100,
    engine_kwargs: Optional[Dict] = None,
) -> SweepResult:
    """MSE quantiles over ``runs`` repetitions for each configuration.

    Reproduces Fig. 16 (and Fig. 2a): same data for every run, fresh
    engine randomness per run.
    """
    result = SweepResult("mse", list(particle_counts), list(methods))
    for method in methods:
        result.cells[method] = {}
        for particles in particle_counts:
            errors = [
                run_mse(
                    model_factory, method, particles, dataset, base_seed + r,
                    engine_kwargs,
                )
                for r in range(runs)
            ]
            result.cells[method][particles] = Quantiles.of(errors)
    return result


def latency_sweep(
    model_factory: Callable[[], ProbNode],
    dataset: Dataset,
    particle_counts: Sequence[int],
    methods: Sequence[str] = ("pf", "bds", "sds"),
    runs: int = 5,
    base_seed: int = 100,
    warmup_steps: int = 1,
    engine_kwargs: Optional[Dict] = None,
) -> SweepResult:
    """Per-step latency quantiles (in milliseconds) for each configuration.

    Reproduces Fig. 17 (and Fig. 2b): latencies are collected per step
    across ``runs`` runs, after a short warm-up.

    Runs are *interleaved* across the ``(method, particles)`` cells
    (run 0 of every cell, then run 1 of every cell, …) instead of
    timing each cell's runs back-to-back. On a shared machine a
    transient contention phase then inflates every cell a little
    rather than one cell a lot, which is what keeps the per-cell
    medians comparable across sweeps — the property the mechanical
    perf-regression gate (:mod:`repro.bench.regression`) relies on.
    """
    result = SweepResult("latency_ms", list(particle_counts), list(methods))
    samples: Dict[str, Dict[int, List[float]]] = {
        method: {particles: [] for particles in particle_counts}
        for method in methods
    }
    for r in range(runs):
        for method in methods:
            for particles in particle_counts:
                engine = _build_engine(
                    model_factory(), method, particles, base_seed + r,
                    engine_kwargs,
                )
                state = engine.init()
                latencies = samples[method][particles]
                for step_idx, obs in enumerate(dataset.observations):
                    start = time.perf_counter()
                    _, state = engine.step(state, obs)
                    elapsed = (time.perf_counter() - start) * 1e3
                    if step_idx >= warmup_steps:
                        latencies.append(elapsed)
    for method in methods:
        result.cells[method] = {
            particles: Quantiles.of(samples[method][particles])
            for particles in particle_counts
        }
    return result


def step_latency_profile(
    model_factory: Callable[[], ProbNode],
    dataset: Dataset,
    n_particles: int = 100,
    methods: Sequence[str] = ("pf", "bds", "sds", "ds"),
    seed: int = 100,
    stride: int = 1,
    engine_kwargs: Optional[Dict] = None,
) -> ProfileResult:
    """Latency of each step along one long run (Fig. 18).

    ``stride`` sub-samples the recorded steps to keep the output small.
    """
    steps = list(range(0, len(dataset.observations), stride))
    result = ProfileResult("latency_ms", steps, list(methods))
    for method in methods:
        engine = _build_engine(
            model_factory(), method, n_particles, seed, engine_kwargs
        )
        state = engine.init()
        series: List[float] = []
        for step_idx, obs in enumerate(dataset.observations):
            start = time.perf_counter()
            _, state = engine.step(state, obs)
            elapsed = (time.perf_counter() - start) * 1e3
            if step_idx % stride == 0:
                series.append(elapsed)
        result.series[method] = series
    return result


def memory_profile(
    model_factory: Callable[[], ProbNode],
    dataset: Dataset,
    n_particles: int = 100,
    methods: Sequence[str] = ("pf", "bds", "sds", "ds"),
    seed: int = 100,
    stride: int = 1,
    engine_kwargs: Optional[Dict] = None,
) -> ProfileResult:
    """Ideal memory (live abstract words) after each step (Fig. 19 / Fig. 4)."""
    steps = list(range(0, len(dataset.observations), stride))
    result = ProfileResult("live_words", steps, list(methods))
    for method in methods:
        engine = _build_engine(
            model_factory(), method, n_particles, seed, engine_kwargs
        )
        state = engine.init()
        series: List[float] = []
        for step_idx, obs in enumerate(dataset.observations):
            _, state = engine.step(state, obs)
            if step_idx % stride == 0:
                series.append(float(engine.memory_words(state)))
        result.series[method] = series
    return result


def particles_to_match(
    sweep: SweepResult,
    reference_method: str = "sds",
    candidate_method: str = "pf",
    quantile: str = "median",
    slack: float = 1.5,
) -> int:
    """Smallest particle count at which ``candidate`` matches ``reference``.

    Section 6.2's headline numbers ("PF can achieve comparable accuracy
    to SDS 50% of the time with 12 particles, 90% of the time with 35"):
    comparable means within ``slack`` of the reference's best accuracy at
    the chosen quantile. Returns -1 if no sweep point matches.
    """
    reference_cells = sweep.cells[reference_method]
    target = min(getattr(q, quantile) for q in reference_cells.values())
    for particles in sorted(sweep.particle_counts):
        cell = sweep.cells[candidate_method][particles]
        if getattr(cell, quantile) <= slack * target:
            return particles
    return -1
