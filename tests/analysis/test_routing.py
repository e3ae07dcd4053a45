"""Analysis-first backend routing and registration verification."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.routing import (
    analysis_for,
    clear_analysis_cache,
    consult_for_backend,
)
from repro.bench.models import (
    KalmanModel,
    OutlierModel,
    WalkModel,
)
from repro.errors import InferenceError
from repro.inference import infer
from repro.inference.engine import StreamingDelayedSampler
from repro.lang import gaussian
from repro.obs import metrics_snapshot
from repro.runtime.node import ProbCtx, ProbNode
from repro.vectorized import VectorizedGaussianChainSDS
from repro.vectorized.models import (
    BDS_ENGINES,
    DS_GRAPH_ADAPTERS,
    SDS_ENGINES,
    register_ds_graph_model,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _lockstep_model_cls():
    spec = importlib.util.spec_from_file_location(
        "lockstep_model_fixture_routing", FIXTURES / "lockstep_model.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LockstepBranchModel


class TestConsultForBackend:
    def test_chain_model_approved(self):
        analysis, decision = consult_for_backend(KalmanModel(), "sds")
        assert decision is True
        assert analysis.verdict == "batchable"

    def test_adapted_registration_judged_through_adapter(self):
        """The raw Outlier model is conclusively unbatchable, but its
        registration carries the GraphOutlierModel rewrite — routing
        must judge what the engine actually runs."""
        analysis, decision = consult_for_backend(OutlierModel(), "bds")
        assert decision is True
        assert analysis.batchable

    def test_unbounded_model_gets_no_volunteer(self):
        analysis, decision = consult_for_backend(WalkModel(), "sds")
        assert decision is None
        assert analysis.verdict == "batchable_unbounded"

    def test_lockstep_violation_rejected(self):
        analysis, decision = consult_for_backend(_lockstep_model_cls()(), "sds")
        assert decision is False
        assert analysis.verdict == "unbatchable"

    def test_pf_is_a_registry_question(self):
        _, decision = consult_for_backend(KalmanModel(), "pf")
        assert decision is None

    def test_verdict_metric_recorded(self):
        def count():
            return sum(
                v
                for k, v in metrics_snapshot()["counters"].items()
                if k.startswith("repro_analysis_verdicts_total")
            )

        before = count()
        consult_for_backend(KalmanModel(), "sds")
        assert count() == before + 1


def _fresh_chain_model():
    """A bounded, batchable Gaussian chain that no registry knows."""

    class UnregisteredKalman(ProbNode):
        def init(self):
            return None

        def step(self, state, yobs, ctx: ProbCtx):
            if state is None:
                xt = ctx.sample(gaussian(0.0, 100.0))
            else:
                xt = ctx.sample(gaussian(0.8 * state, 1.0))
            ctx.observe(gaussian(xt, 1.0), yobs)
            return xt, xt

    return UnregisteredKalman()


class TestAutoBackend:
    def test_unbatchable_model_goes_straight_to_scalar(self):
        engine = infer(
            _lockstep_model_cls()(), n_particles=4, method="sds", backend="auto"
        )
        assert isinstance(engine, StreamingDelayedSampler)

    def test_batchable_unregistered_model_gets_graph_engine(self):
        """Conclusively batchable + bounded but never registered: auto
        constructs the generic graph engine instead of probing."""
        model = _fresh_chain_model()
        assert type(model) not in SDS_ENGINES
        engine = infer(model, n_particles=4, method="sds", backend="auto", seed=0)
        assert isinstance(engine, VectorizedGaussianChainSDS)
        dist, _ = engine.step(engine.init(), 0.5)
        assert np.isfinite(dist.mean())

    def test_graph_engine_construction_failure_propagates(self, monkeypatch):
        """A failure building the graph engine is raised, not swallowed
        into a silent scalar fallback (construction never runs the model,
        so nothing the model does can fail there)."""
        import repro.vectorized.engine as vengine

        def broken(*args, **kwargs):
            raise RuntimeError("graph engine construction failed")

        monkeypatch.setattr(vengine, "VectorizedGaussianChainSDS", broken)
        with pytest.raises(RuntimeError, match="construction failed"):
            infer(_fresh_chain_model(), n_particles=4, method="sds", backend="auto")

    def test_bad_arguments_still_raise_inference_error(self):
        with pytest.raises(InferenceError, match="unknown resampler"):
            infer(
                _fresh_chain_model(), n_particles=4, method="sds",
                backend="auto", resampler="bogus",
            )

    def test_vectorized_backend_unchanged_by_analysis(self):
        """backend="vectorized" keeps its registry-only contract: an
        unregistered model falls back to scalar, no auto-construction."""

        class UnregisteredChain(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx: ProbCtx):
                xt = ctx.sample(gaussian(0.0, 1.0))
                ctx.observe(gaussian(xt, 1.0), yobs)
                return xt, xt

        engine = infer(
            UnregisteredChain(), n_particles=4, method="sds", backend="vectorized"
        )
        assert isinstance(engine, StreamingDelayedSampler)


class TestAnalysisCache:
    def test_same_configuration_shares_analysis(self):
        clear_analysis_cache()
        a1 = analysis_for(KalmanModel())
        a2 = analysis_for(KalmanModel())
        assert a1 is a2

    def test_different_configuration_recomputed(self):
        clear_analysis_cache()
        a1 = analysis_for(KalmanModel())
        a2 = analysis_for(KalmanModel(prior_mean=5.0))
        assert a1 is not a2


class TestRegistrationVerification:
    def test_unbatchable_registration_warns_but_registers(self):
        cls = _lockstep_model_cls()
        try:
            with pytest.warns(RuntimeWarning, match="conclusively unbatchable"):
                register_ds_graph_model(cls)
            assert cls in BDS_ENGINES and cls in SDS_ENGINES
        finally:
            BDS_ENGINES.pop(cls, None)
            SDS_ENGINES.pop(cls, None)
            DS_GRAPH_ADAPTERS.pop(cls, None)

    def test_clean_registration_does_not_warn(self, recwarn):
        class CleanChain(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx: ProbCtx):
                xt = ctx.sample(gaussian(0.0, 1.0))
                ctx.observe(gaussian(xt, 1.0), yobs)
                return xt, xt

        try:
            register_ds_graph_model(CleanChain)
            assert not [w for w in recwarn if w.category is RuntimeWarning]
        finally:
            BDS_ENGINES.pop(CleanChain, None)
            SDS_ENGINES.pop(CleanChain, None)
            DS_GRAPH_ADAPTERS.pop(CleanChain, None)

    def test_registration_is_atomic(self, monkeypatch):
        """A failure mid-registration rolls every registry back."""
        import repro.vectorized.models as models_mod

        class DoomedModel(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx: ProbCtx):
                xt = ctx.sample(gaussian(0.0, 1.0))
                ctx.observe(gaussian(xt, 1.0), yobs)
                return xt, xt

        def boom(model_cls, factory):
            raise RuntimeError("registry exploded")

        monkeypatch.setattr(models_mod, "register_sds_engine", boom)
        with pytest.raises(RuntimeError, match="registry exploded"):
            register_ds_graph_model(DoomedModel, verify=False)
        assert DoomedModel not in BDS_ENGINES
        assert DoomedModel not in SDS_ENGINES
        assert DoomedModel not in DS_GRAPH_ADAPTERS

    def test_adapter_recorded_for_routing(self):
        assert OutlierModel in DS_GRAPH_ADAPTERS


class TestProbeFailureAtomicity:
    """Satellite bugfix: probes report, they never raise — so a
    probe-then-register block cannot be aborted halfway."""

    def test_batched_probe_failure_is_structured(self):
        from repro.delayed.detect import probe_ds_structure

        class SecondInitRaises(ProbNode):
            """Scalar probe succeeds; the batched smoke run (which calls
            ``init`` a second time) dies with an exception outside the
            old catch list."""

            def __init__(self):
                self.inits = 0

            def init(self):
                self.inits += 1
                if self.inits > 1:
                    raise RuntimeError("persistent handle already consumed")
                return None

            def step(self, state, yobs, ctx: ProbCtx):
                # beta/bernoulli families force the batched smoke run
                from repro.lang import bernoulli, beta

                p = ctx.sample(beta(1.0, 1.0))
                ctx.observe(bernoulli(p), yobs)
                return p, None

        report = probe_ds_structure(SecondInitRaises(), [True, False])
        assert not report.is_batchable
        assert "stage=init" in report.reason
        assert "RuntimeError" in report.reason

    def test_batched_probe_step_failure_tags_the_step(self):
        from repro.delayed.detect import _run_batched_probe

        class StepRaises(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx: ProbCtx):
                raise AttributeError("no such kernel")

        reason = _run_batched_probe(StepRaises(), [0.1, 0.2], seed=0, n=3)
        assert "stage=step index=0" in reason
        assert "AttributeError" in reason

    def test_scalar_probe_never_raises(self):
        from repro.delayed.detect import probe_gaussian_chain

        class InitRaises(ProbNode):
            def init(self):
                raise AttributeError("bad handle")

            def step(self, state, yobs, ctx: ProbCtx):
                return 0.0, None

        report = probe_gaussian_chain(InitRaises(), [0.1])
        assert not report.is_chain
        assert "stage=init" in report.reason
