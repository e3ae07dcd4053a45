"""Analysis-first backend routing and registration verification."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import UNLIFTABLE_OUTPUT, analyze_model, analyze_node
from repro.analysis.lint import bench_model_instances
from repro.analysis.routing import (
    analysis_for,
    clear_analysis_cache,
    consult_for_backend,
)
from repro.bench.models import KalmanModel, OutlierModel, WalkModel
from repro.bench.paper_sources import HMM_SOURCE, PAPER_SOURCES, load_paper_node
from repro.core import load
from repro.errors import InferenceError
from repro.frontend import parse_program
from repro.inference import infer
from repro.inference.engine import (
    BoundedDelayedSampler,
    OriginalDelayedSampler,
    ParticleFilter,
    StreamingDelayedSampler,
)
from repro.lang import bernoulli, gaussian
from repro.obs import metrics_snapshot
from repro.runtime.node import FunProbNode, ProbCtx, ProbNode
from repro.vectorized import (
    VectorizedBetaBernoulliSDS,
    VectorizedGaussianChainSDS,
    VectorizedKalman,
    VectorizedKalmanSDS,
    VectorizedParticleFilter,
)
from repro.vectorized.models import (
    DS_GRAPH_MODELS,
    GraphOutlierModel,
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
        assert type(model) not in DS_GRAPH_MODELS
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


def _hmm_step(state, yobs, ctx: ProbCtx):
    xt = ctx.sample(gaussian(0.0 if state is None else state, 1.0))
    ctx.observe(gaussian(xt, 1.0), yobs)
    return xt, xt


def _walk_step(state, yobs, ctx: ProbCtx):
    xt = ctx.sample(gaussian(0.0 if state is None else state, 1.0))
    return xt, xt


def _branching_step(state, yobs, ctx: ProbCtx):
    xt = ctx.sample(gaussian(0.0, 1.0))
    if ctx.value(ctx.sample(bernoulli(0.3))):
        ctx.observe(gaussian(xt, 10.0), yobs)
    else:
        ctx.observe(gaussian(xt, 0.1), yobs)
    return xt, None


class TestAnalysisCache:
    def test_functional_models_keyed_by_step_function(self):
        """A ``FunProbNode``'s step function has an address-only repr;
        each function gets its own analysis, not the first one cached."""
        clear_analysis_cache()
        verdicts = [
            analysis_for(FunProbNode(None, step)).verdict
            for step in (_hmm_step, _walk_step, _branching_step)
        ]
        assert verdicts == ["batchable", "batchable_unbounded", "unbatchable"]

    def test_warm_cache_routes_functional_model_by_its_own_verdict(self):
        clear_analysis_cache()
        analysis_for(FunProbNode(None, _hmm_step))
        engine = infer(
            FunProbNode(None, _branching_step), n_particles=4, method="sds",
            backend="auto",
        )
        assert isinstance(engine, StreamingDelayedSampler)

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


class TestCompiledNodes:
    """A compiled surface node is analyzed from its kernel program."""

    @pytest.mark.parametrize("name", sorted(PAPER_SOURCES))
    def test_verdict_is_the_kernel_ast_verdict(self, name):
        compiled = analyze_model(load_paper_node(name))
        direct = analyze_node(parse_program(PAPER_SOURCES[name]), name)
        assert compiled.verdict == direct.verdict == "batchable"
        assert compiled.families == direct.families
        assert compiled.bounded == direct.bounded

    def test_one_module_costs_one_cold_analysis(self, monkeypatch):
        import repro.analysis.routing as routing_mod

        cold = []

        def counting(model):
            cold.append(model)
            return analyze_model(model)

        monkeypatch.setattr(routing_mod, "analyze_model", counting)
        clear_analysis_cache()
        module = load(parse_program(HMM_SOURCE))
        first = analysis_for(module.prob_node("hmm"))
        second = analysis_for(module.prob_node("hmm"))
        assert first is second
        assert len(cold) == 1

    @pytest.mark.parametrize(
        "method,backend,engine_cls",
        [
            ("pf", "auto", ParticleFilter),
            ("ds", "auto", OriginalDelayedSampler),
            ("sds", "vectorized", StreamingDelayedSampler),
        ],
    )
    def test_other_routes_stay_scalar(self, method, backend, engine_cls):
        engine = infer(
            load_paper_node("hmm"), n_particles=4, method=method, backend=backend
        )
        assert type(engine) is engine_cls


class TupleOutput(ProbNode):
    """Returns a tuple holding two random variables."""

    def init(self):
        return 0.0

    def step(self, state, yobs, ctx: ProbCtx):
        x = ctx.sample(gaussian(state, 1.0))
        v = ctx.sample(gaussian(x, 2.0))
        ctx.observe(gaussian(v, 1.0), yobs)
        return (x, v), x


class ForcedTupleOutput(ProbNode):
    """Returns a tuple holding a forced value."""

    def init(self):
        return 0.0

    def step(self, state, yobs, ctx: ProbCtx):
        x = ctx.sample(gaussian(state, 1.0))
        v = ctx.sample(gaussian(x, 2.0))
        ctx.observe(gaussian(v, 1.0), yobs)
        return (ctx.value(x), 1.0), x


class SharedTupleOutput(ProbNode):
    """Returns a tuple every particle shares."""

    def init(self):
        return 0.0

    def step(self, state, yobs, ctx: ProbCtx):
        x = ctx.sample(gaussian(state, 1.0))
        ctx.observe(gaussian(x, 1.0), yobs)
        return (yobs, 1.0), x


TUPLE_SOURCE = """
let node p y = (x, v) where
  rec x = sample (gaussian (0. -> pre x, 1.))
  and v = sample (gaussian (x, 2.))
  and () = observe (gaussian (v, 1.), y)
"""

# shared nested pairs: the first has a mean, the second is ragged
NESTED_SOURCE = """
let node q y = ((y, 1.), (2., 3.)) where
  rec x = sample (gaussian (0. -> pre x, 1.))
  and () = observe (gaussian (x, 1.), y)
"""

RAGGED_SOURCE = """
let node r y = ((y, 1.), 2.) where
  rec x = sample (gaussian (0. -> pre x, 1.))
  and () = observe (gaussian (x, 1.), y)
"""

TUPLE_MODELS = {
    "random-variables": TupleOutput,
    "forced-value": ForcedTupleOutput,
    "shared": SharedTupleOutput,
    "surface": lambda: load(parse_program(TUPLE_SOURCE)).prob_node("p"),
    "surface-nested": lambda: load(parse_program(NESTED_SOURCE)).prob_node("q"),
    "surface-ragged": lambda: load(parse_program(RAGGED_SOURCE)).prob_node("r"),
}


class TestUnliftableOutput:
    """The batched engines stack a tuple output as one array, which they
    cannot tell apart from per-particle rows, so a tuple output keeps
    the model on the scalar engines (REP010), which lift it as a
    product of marginals."""

    @pytest.mark.parametrize("kind", sorted(TUPLE_MODELS))
    def test_flagged_unbatchable(self, kind):
        analysis = analyze_model(TUPLE_MODELS[kind]())
        assert analysis.conclusive, analysis.reason
        assert not analysis.batchable
        assert UNLIFTABLE_OUTPUT in {d.code for d in analysis.diagnostics}

    @staticmethod
    def _run(model, n, method, backend, query):
        engine = infer(
            model, n_particles=n, method=method, seed=2, backend=backend
        )
        state, out = engine.init(), []
        for yobs in (0.3, 1.0, -0.5):
            dist, state = engine.step(state, yobs)
            out.append(query(dist))
        return type(engine), out

    @pytest.mark.parametrize("method", ["sds", "bds"])
    @pytest.mark.parametrize("n", [2, 100])
    @pytest.mark.parametrize("kind", sorted(set(TUPLE_MODELS) - {"surface-ragged"}))
    def test_auto_matches_scalar(self, kind, n, method):
        """Two particles match a two-component tuple: a stacked output
        would pass as one value per particle."""

        def means(backend):
            _, out = self._run(
                TUPLE_MODELS[kind](), n, method, backend,
                lambda dist: dist.mean(),
            )
            return np.asarray(out)

        assert np.array_equal(means("auto"), means("scalar"))

    @pytest.mark.parametrize("method", ["sds", "bds"])
    def test_ragged_output_runs_scalar(self, method):
        """A ragged tuple has no mean; ``auto`` must run the scalar
        engine and give its draws."""

        def draws(backend):
            return self._run(
                TUPLE_MODELS["surface-ragged"](), 2, method, backend,
                lambda dist: dist.sample(np.random.default_rng(0)),
            )

        assert draws("auto") == draws("scalar")


class TestRegistrationVerification:
    def test_unbatchable_registration_warns_but_registers(self):
        cls = _lockstep_model_cls()
        try:
            with pytest.warns(RuntimeWarning, match="conclusively unbatchable"):
                register_ds_graph_model(cls)
            assert cls in DS_GRAPH_MODELS
        finally:
            DS_GRAPH_MODELS.pop(cls, None)

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
            DS_GRAPH_MODELS.pop(CleanChain, None)

    def test_analysis_crash_propagates(self, monkeypatch):
        """A crash inside the analysis is an analyzer bug: registration
        raises it instead of registering silently."""
        import repro.analysis.routing as routing_mod

        class CrashChain(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx: ProbCtx):
                xt = ctx.sample(gaussian(0.0, 1.0))
                ctx.observe(gaussian(xt, 1.0), yobs)
                return xt, xt

        def crash(model):
            raise RuntimeError("analyzer bug")

        monkeypatch.setattr(routing_mod, "analysis_for", crash)
        with pytest.raises(RuntimeError, match="analyzer bug"):
            register_ds_graph_model(CrashChain)
        assert CrashChain not in DS_GRAPH_MODELS

    def test_adapter_recorded_for_routing(self):
        assert DS_GRAPH_MODELS[OutlierModel] is GraphOutlierModel


class TestRoutingFailuresSurface:
    """A broken registration or a model no engine can run raises; it
    never turns into a silent scalar route."""

    @staticmethod
    def _chain_cls():
        class Chain(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx: ProbCtx):
                xt = ctx.sample(gaussian(0.0, 1.0))
                ctx.observe(gaussian(xt, 1.0), yobs)
                return xt, xt

        return Chain

    @staticmethod
    def _broken_adapter(model):
        raise ValueError("adapter bug")

    def test_raising_adapter_propagates_from_routing(self):
        cls = self._chain_cls()
        register_ds_graph_model(cls, adapter=self._broken_adapter, verify=False)
        try:
            with pytest.raises(ValueError, match="adapter bug"):
                consult_for_backend(cls(), "sds")
            with pytest.raises(ValueError, match="adapter bug"):
                infer(cls(), n_particles=4, method="bds", backend="auto")
        finally:
            DS_GRAPH_MODELS.pop(cls, None)

    def test_failed_import_propagates_from_routing(self, monkeypatch):
        import sys

        monkeypatch.setitem(sys.modules, "repro.vectorized.models", None)
        with pytest.raises(ImportError):
            consult_for_backend(KalmanModel(), "sds")

    def test_raising_adapter_propagates_from_registration(self):
        cls = self._chain_cls()
        with pytest.raises(ValueError, match="adapter bug"):
            register_ds_graph_model(cls, adapter=self._broken_adapter)
        assert cls not in DS_GRAPH_MODELS

    def test_raising_constructor_propagates_from_registration(self):
        class Broken(self._chain_cls()):
            def __init__(self):
                raise ValueError("constructor bug")

        with pytest.raises(ValueError, match="constructor bug"):
            register_ds_graph_model(Broken)
        assert Broken not in DS_GRAPH_MODELS

    def test_constructor_with_arguments_registers_unchecked(self, recwarn):
        class Parametrized(self._chain_cls()):
            def __init__(self, scale):
                self.scale = scale

        try:
            register_ds_graph_model(Parametrized)
            assert DS_GRAPH_MODELS[Parametrized] is None
            assert not [w for w in recwarn if w.category is RuntimeWarning]
        finally:
            DS_GRAPH_MODELS.pop(Parametrized, None)

    @pytest.mark.parametrize(
        "method,backend",
        [(m, b) for m in ("bds", "sds", "ds", "importance")
         for b in ("scalar", "vectorized", "auto")]
        + [("pf", "scalar")],
    )
    def test_batched_model_runs_only_under_vectorized_pf(self, method, backend):
        with pytest.raises(InferenceError, match="method='pf' on a vectorized"):
            infer(VectorizedKalman(), n_particles=4, method=method, backend=backend)


#: The engine ``infer`` builds for each model and method, under
#: ``backend="vectorized"`` and then ``backend="auto"``: an engine
#: class, with ``:mode`` for the graph engine.
ROUTES = """
KalmanModel                       VPF  VPF   G:bds  G:bds  KSDS   KSDS
HmmModel                          VPF  VPF   G:bds  G:bds  KSDS   KSDS
CoinModel                         VPF  VPF   G:bds  G:bds  BBSDS  BBSDS
OutlierModel                      VPF  VPF   G:bds  G:bds  G:sds  G:sds
GraphOutlierModel                 PF   PF    BDS    G:bds  SDS    G:sds
HmmInitModel                      PF   PF    BDS    BDS    SDS    SDS
WalkModel                         PF   PF    BDS    BDS    SDS    SDS
BoundedWalkModel                  PF   PF    BDS    G:bds  SDS    G:sds
PoissonCountModel                 PF   PF    G:bds  G:bds  G:sds  G:sds
DirichletCategoricalModel         PF   PF    G:bds  G:bds  G:sds  G:sds
MixedFragmentModel(realize=none)  PF   PF    G:bds  G:bds  G:sds  G:sds
MixedFragmentModel(realize=one)   PF   PF    G:bds  G:bds  G:sds  G:sds
MixedFragmentModel(realize=all)   PF   PF    G:bds  G:bds  G:sds  G:sds
RobotModel                        PF   PF    G:bds  G:bds  G:sds  G:sds
paper:hmm                         PF   PF    BDS    G:bds  SDS    G:sds
paper:delay_kalman                PF   PF    BDS    G:bds  SDS    G:sds
paper:coin                        PF   PF    BDS    G:bds  SDS    G:sds
"""

ENGINE_CODES = {
    "PF": ParticleFilter,
    "BDS": BoundedDelayedSampler,
    "SDS": StreamingDelayedSampler,
    "VPF": VectorizedParticleFilter,
    "KSDS": VectorizedKalmanSDS,
    "BBSDS": VectorizedBetaBernoulliSDS,
    "G": VectorizedGaussianChainSDS,
}


def _route_cells():
    cells = {}
    for line in ROUTES.strip().splitlines():
        name, *codes = line.split()
        for i, code in enumerate(codes):
            method = ("pf", "bds", "sds")[i // 2]
            backend = ("vectorized", "auto")[i % 2]
            engine, _, mode = code.partition(":")
            cells[name, method, backend] = (ENGINE_CODES[engine], mode or None)
    return cells


ROUTE_CELLS = _route_cells()


def _route_model(name):
    if name.startswith("paper:"):
        return load_paper_node(name[len("paper:"):])
    return bench_model_instances()[name]


class TestRoutingTable:
    """Every (model, method, backend) cell of the vectorized routing
    rule: the bench models, their adapter, and the compiled paper nodes."""

    def test_table_covers_every_model(self):
        names = {name for name, _, _ in ROUTE_CELLS}
        assert names == set(bench_model_instances()) | {
            "paper:hmm", "paper:delay_kalman", "paper:coin"
        }
        assert len(ROUTE_CELLS) == 102

    @pytest.mark.parametrize("name,method,backend", sorted(ROUTE_CELLS))
    def test_engine_and_mode(self, name, method, backend):
        engine = infer(
            _route_model(name), n_particles=4, method=method, backend=backend,
            seed=0,
        )
        engine_cls, mode = ROUTE_CELLS[name, method, backend]
        assert type(engine) is engine_cls
        assert getattr(engine, "mode", None) == mode
