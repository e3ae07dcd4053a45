"""The empirical structure probe behind the analysis cross-check."""

from ds_probe import _run_batched_probe, probe_ds_structure

from repro.bench.models import (
    CoinModel,
    KalmanModel,
    OutlierModel,
)
from repro.bench.robot import RobotModel
from repro.runtime.node import ProbCtx, ProbNode
from repro.vectorized.sds_graph import FAMILY_KERNELS


class TestDSStructureProbe:
    def test_kalman_is_batchable_chain(self):
        report = probe_ds_structure(KalmanModel(), [0.5, -0.2, 1.1])
        assert report.is_batchable
        assert report.shape == "chain"
        assert report.families == frozenset({"gaussian"})

    def test_robot_is_batchable(self):
        report = probe_ds_structure(
            RobotModel(), [(0.0, 0.0, 0.0), (0.1, None, 0.0)]
        )
        assert report.is_batchable and report.shape == "chain"

    def test_coin_is_batchable_beyond_gaussian(self):
        """Beta/Bernoulli families are inside the batched fragment now."""
        report = probe_ds_structure(CoinModel(), [True, False])
        assert report.is_batchable
        assert report.families <= FAMILY_KERNELS.keys()
        assert "beta" in report.families

    def test_raw_outlier_rejected_by_batched_smoke(self):
        """The raw Outlier model branches Python control flow on the
        forced per-particle indicator — the batched smoke run is what
        catches it (families and conjugacies alone look fine)."""
        report = probe_ds_structure(OutlierModel(), [0.5, 0.7])
        assert not report.is_batchable
        assert report.shape == "tree"
        assert report.forced > 0
        assert "batched probe" in report.reason

    def test_outlier_adapter_is_batchable_tree(self):
        from repro.vectorized import GraphOutlierModel

        adapter = GraphOutlierModel(OutlierModel())
        report = probe_ds_structure(adapter, [0.5, 0.7])
        assert report.is_batchable
        assert report.shape == "tree"
        assert report.forced > 0
        assert {"gaussian", "beta", "bernoulli"} <= report.families

    def test_gamma_poisson_family_batchable(self):
        """Gamma-Poisson count models are first-class batched slots now."""
        from repro.lang import gamma, poisson
        from repro.runtime.node import ProbNode

        class GammaPoissonModel(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx):
                lam = ctx.sample(gamma(2.0, 1.0)) if state is None else state
                ctx.observe(poisson(lam), yobs)
                return lam, lam

        report = probe_ds_structure(GammaPoissonModel(), [1, 2])
        assert report.is_batchable
        assert {"gamma", "poisson"} <= report.families

    def test_unsupported_family_rejected(self):
        """Families without SoA kernels (opaque roots) are still rejected."""
        from repro.lang import exponential, gaussian
        from repro.runtime.node import ProbNode

        class ExponentialModel(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx):
                rate = ctx.sample(exponential(1.0)) if state is None else state
                ctx.observe(gaussian(ctx.value(rate), 1.0), yobs)
                return rate, rate

        report = probe_ds_structure(ExponentialModel(), [0.5, 0.7])
        assert not report.is_batchable

    def test_empty_probe_rejected(self):
        assert not probe_ds_structure(KalmanModel(), []).is_batchable


class TestRobustness:
    def test_model_raising_is_rejected_not_propagated(self):
        class Broken(KalmanModel):
            def step(self, state, yobs, ctx):
                raise ValueError("boom")

        report = probe_ds_structure(Broken(), [0.5])
        assert not report.is_batchable
        assert "ValueError" in report.reason


class TestProbeFailureAtomicity:
    """The probe reports, it never raises: every failure of the model
    comes back as a stage-tagged reason."""

    def test_batched_probe_failure_is_structured(self):
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
        class StepRaises(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx: ProbCtx):
                raise AttributeError("no such kernel")

        reason = _run_batched_probe(StepRaises(), [0.1, 0.2], seed=0, n=3)
        assert "stage=step index=0" in reason
        assert "AttributeError" in reason

    def test_scalar_probe_never_raises(self):
        class InitRaises(ProbNode):
            def init(self):
                raise AttributeError("bad handle")

            def step(self, state, yobs, ctx: ProbCtx):
                return 0.0, None

        report = probe_ds_structure(InitRaises(), [0.1])
        assert not report.is_batchable
        assert "stage=init" in report.reason
