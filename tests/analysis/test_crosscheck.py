"""Static analysis vs. the empirical probe, model by model.

The cross-validation harness of the analysis PR: for every registered
bench model the ahead-of-time verdict must agree with
the empirical probe :func:`ds_probe.probe_ds_structure` (family set, shape,
batchable flag), and every model the analysis proves bounded+batchable
must run 50 steps on the batched backend without a single
``repro_scalar_fallback_total`` increment.
"""

import numpy as np
import pytest
from ds_probe import probe_ds_structure

from repro.analysis import analyze_model
from repro.bench.models import (
    BoundedWalkModel,
    CoinModel,
    DirichletCategoricalModel,
    HmmInitModel,
    HmmModel,
    KalmanModel,
    MixedFragmentModel,
    OutlierModel,
    PoissonCountModel,
    WalkModel,
)
from repro.bench.robot import RobotModel
from repro.inference import infer
from repro.obs import metrics_snapshot
from repro.vectorized.models import GraphOutlierModel

# (model factory, probe inputs covering init + steady-state instants)
BENCH_MODELS = [
    ("kalman", KalmanModel, [0.5, -0.2, 1.1]),
    ("hmm", HmmModel, [0.1, 0.2]),
    ("coin", CoinModel, [True, False]),
    ("outlier", OutlierModel, [0.5, 0.7]),
    (
        "graph_outlier",
        lambda: GraphOutlierModel(OutlierModel()),
        [0.5, 0.7],
    ),
    ("hmm_init", HmmInitModel, [0.1, 0.2, 0.3]),
    ("walk", WalkModel, [None, None]),
    ("bounded_walk", BoundedWalkModel, [None, None, None]),
    ("poisson_count", PoissonCountModel, [3, 1, 4]),
    ("dirichlet_categorical", DirichletCategoricalModel, [0, 2, 1]),
    ("mixed_none", lambda: MixedFragmentModel(realize="none"), [(1, 2, 0, 3)] * 2),
    ("mixed_one", lambda: MixedFragmentModel(realize="one"), [(1, 2, 0, 3)] * 2),
    ("mixed_all", lambda: MixedFragmentModel(realize="all"), [(1, 2, 0, 3)] * 2),
    ("robot", RobotModel, [(0.0, 0.0, 0.0), (0.1, None, 0.0)]),
]


@pytest.mark.parametrize(
    "name,factory,inputs", BENCH_MODELS, ids=[m[0] for m in BENCH_MODELS]
)
class TestAnalysisAgreesWithProbe:
    def test_conclusive_on_every_bench_model(self, name, factory, inputs):
        """The acceptance bar: the analysis sees through 100% of the
        registered bench models — no probe fallback needed."""
        analysis = analyze_model(factory())
        assert analysis.conclusive, analysis.reason

    def test_batchable_flag_matches(self, name, factory, inputs):
        analysis = analyze_model(factory())
        probe = probe_ds_structure(factory(), inputs)
        assert analysis.is_batchable == probe.is_batchable, (
            f"{name}: analysis says batchable={analysis.is_batchable}, "
            f"probe says {probe.is_batchable} ({probe.reason})"
        )

    def test_family_set_matches(self, name, factory, inputs):
        analysis = analyze_model(factory())
        probe = probe_ds_structure(factory(), inputs)
        assert analysis.families == probe.families, (
            f"{name}: analysis families {sorted(analysis.families)} != "
            f"probe families {sorted(probe.families)}"
        )

    def test_shape_matches(self, name, factory, inputs):
        analysis = analyze_model(factory())
        probe = probe_ds_structure(factory(), inputs)
        assert analysis.shape == probe.shape, (
            f"{name}: analysis shape {analysis.shape!r} != probe "
            f"shape {probe.shape!r}"
        )


class TestMemoryVerdicts:
    """Boundedness is the analysis's own territory — the probe cannot
    see it (a growing graph still *runs*)."""

    def test_pathologies_flagged_unbounded(self):
        for model in (HmmInitModel(), WalkModel()):
            analysis = analyze_model(model)
            assert analysis.conclusive and not analysis.bounded

    def test_mitigation_and_chains_bounded(self):
        for model in (BoundedWalkModel(), KalmanModel(), HmmModel(), RobotModel()):
            analysis = analyze_model(model)
            assert analysis.conclusive and analysis.bounded


def _fallback_count() -> float:
    return sum(
        v
        for k, v in metrics_snapshot()["counters"].items()
        if k.startswith("repro_scalar_fallback_total")
    )


def _step_input(rng, name):
    if name in ("poisson_count",):
        return int(rng.integers(0, 6))
    if name in ("dirichlet_categorical",):
        return int(rng.integers(0, 3))
    if name.startswith("mixed"):
        return tuple(int(c) for c in rng.integers(0, 6, size=4))
    if name == "coin":
        return bool(rng.integers(0, 2))
    if name == "robot":
        gps = float(rng.normal()) if rng.integers(0, 2) else None
        return (float(rng.normal()), gps, 0.0)
    return float(rng.normal())


@pytest.mark.parametrize("method", ["sds", "bds"])
def test_bounded_verdict_models_never_fall_back(method):
    """50 steps under ``backend="auto"`` for every model whose verdict
    is bounded+batchable: the batched engine must hold — zero
    ``repro_scalar_fallback_total`` increments."""
    rng = np.random.default_rng(7)
    for name, factory, _ in BENCH_MODELS:
        model = factory()
        analysis = analyze_model(model)
        if not (analysis.conclusive and analysis.batchable and analysis.bounded):
            continue
        engine = infer(model, n_particles=8, method=method, backend="auto", seed=3)
        before = _fallback_count()
        state = engine.init()
        for _ in range(50):
            _, state = engine.step(state, _step_input(rng, name))
        after = _fallback_count()
        assert after == before, (
            f"{name} ({method}): {after - before} scalar fallback(s) in a "
            f"50-step run despite a bounded+batchable static verdict"
        )
