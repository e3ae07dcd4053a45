"""The generic batched delayed-sampling graph (PR 5).

Four layers of checks:

* graph-level unit tests of the new family dispatch — Beta-Bernoulli
  slots, per-particle affine coefficients / variances, tree-shaped
  graphs (a Beta branch beside a Gaussian chain, sibling pruning);
* the Outlier model on the generic graph — bit-identical to the retired
  bespoke ``VectorizedOutlierSDS`` engine (the oracle in
  ``outlier_oracle.py``) at a fixed seed, and posterior-equivalent to
  the scalar sds/bds engines in law;
* executor bit-identity for a tree-shaped model: serial / threads /
  processes-persistent must reproduce the same posterior stream bit for
  bit;
* the degradation ladder: a model that breaks conjugacy at step k
  realizes only the offending slot and continues on the graph
  (``repro_slot_realizations_total``), while a model that leaves the
  expressible fragment entirely (an unsupported family) migrates to the
  scalar delayed sampler (one-time ``RuntimeWarning``, state migrated)
  instead of aborting with ``ChainStructureError``.
"""

import warnings

import numpy as np
import pytest

from repro.bench.data import outlier_data
from repro.bench.models import CoinModel, OutlierModel
from repro.dists import Bernoulli, Beta
from repro.errors import GraphError
from repro.inference import infer
from repro.lang import bernoulli, beta, gaussian, uniform
from repro.runtime.node import ProbCtx, ProbNode
from repro.vectorized import (
    BatchedDelayedCtx,
    BatchedDSGraph,
    BetaMixtureArray,
    ChainStructureError,
    GaussianMixtureArray,
    GraphOutlierModel,
    ScalarFallbackState,
    VectorizedGaussianChainSDS,
)
from repro.vectorized.sds_graph import (
    MARGINALIZED,
    REALIZED,
    BetaBernoulliEdge,
    ScalarAffineEdge,
)

from outlier_oracle import VectorizedOutlierSDS

ODATA = outlier_data(25, seed=7)


def run_stream(engine, observations):
    state = engine.init()
    means, variances = [], []
    for obs in observations:
        dist, state = engine.step(state, obs)
        means.append(dist.mean())
        variances.append(dist.variance())
    return np.asarray(means), np.asarray(variances), dist, state


# ----------------------------------------------------------------------
# graph-level unit tests: Beta-Bernoulli slots and tree shapes
# ----------------------------------------------------------------------
class TestBetaBernoulliSlots:
    def test_beta_root_broadcasts_parameters(self):
        graph = BatchedDSGraph(4)
        node = graph.assume_root_dist(Beta(2.0, 3.0))
        alpha, b = graph.posterior_marginal(node.slot)
        assert alpha.tolist() == [2.0] * 4
        assert b.tolist() == [3.0] * 4

    def test_bernoulli_marginal_is_predictive(self):
        graph = BatchedDSGraph(3)
        parent = graph.assume_root_dist(Beta(1.0, 3.0))
        child = graph.assume_conditional(BetaBernoulliEdge(), parent)
        graph.graft(child.slot)
        p, none = graph.posterior_marginal(child.slot)
        assert none is None
        assert p == pytest.approx([0.25] * 3)

    def test_observe_conditions_counts_deferred(self):
        graph = BatchedDSGraph(2)
        parent = graph.assume_root_dist(Beta(1.0, 1.0))
        child = graph.assume_conditional(BetaBernoulliEdge(), parent)
        logw = graph.observe(child, True)
        assert logw == pytest.approx([np.log(0.5)] * 2)
        # deferred conditioning: counts fold when the parent is queried
        alpha, b = graph.posterior_marginal(parent.slot)
        assert alpha.tolist() == [2.0, 2.0]
        assert b.tolist() == [1.0, 1.0]

    def test_forced_indicator_realizes_per_particle(self):
        graph = BatchedDSGraph(1000, rng=np.random.default_rng(0))
        parent = graph.assume_root_dist(Beta(1.0, 9.0))
        child = graph.assume_conditional(BetaBernoulliEdge(), parent)
        drawn = graph.value(child)
        assert drawn.dtype == bool and drawn.shape == (1000,)
        assert abs(float(drawn.mean()) - 0.1) < 0.05
        assert graph.node_state[child.slot] == REALIZED
        # per-particle counts after folding the indicator array
        alpha, b = graph.posterior_marginal(parent.slot)
        assert np.array_equal(alpha, 1.0 + drawn)
        assert np.array_equal(b, 9.0 + ~drawn)

    def test_realized_beta_parent_collapses_bernoulli(self):
        graph = BatchedDSGraph(50, rng=np.random.default_rng(1))
        parent = graph.assume_root_dist(Beta(5.0, 5.0))
        theta = graph.value(parent)
        child = graph.assume_conditional(BetaBernoulliEdge(), parent)
        p, _ = graph.posterior_marginal(child.slot)
        assert np.array_equal(p, theta)

    def test_beta_observe_scores_density(self):
        graph = BatchedDSGraph(2)
        node = graph.assume_root_dist(Beta(2.0, 2.0))
        logw = graph.observe(node, 0.5)
        assert logw == pytest.approx([Beta(2.0, 2.0).log_pdf(0.5)] * 2)

    def test_ctx_assume_beta_and_bernoulli(self):
        ctx = BatchedDelayedCtx(BatchedDSGraph(3))
        prob = ctx.sample(beta(2.0, 5.0))
        flag = ctx.sample(bernoulli(prob))
        assert prob.node.family == "beta"
        assert flag.node.family == "bernoulli"

    def test_bernoulli_with_concrete_probability(self):
        graph = BatchedDSGraph(4, rng=np.random.default_rng(2))
        ctx = BatchedDelayedCtx(graph)
        flag = ctx.sample(bernoulli(0.5))
        drawn = ctx.value(flag)
        assert drawn.shape == (4,) and drawn.dtype == bool


class TestPerParticleEdges:
    def test_masked_edge_updates_only_unmasked_rows(self):
        """a_i = 0 leaves particle i's parent marginal untouched."""
        graph = BatchedDSGraph(2)
        parent = graph.assume_root("gaussian", np.array([0.0, 0.0]), 1.0)
        mask_a = np.array([1.0, 0.0])
        var = np.array([0.5, 100.0])
        child = graph.assume_conditional(
            ScalarAffineEdge(mask_a, 0.0, var), parent
        )
        graph.observe(child, 2.0)
        mean, post_var = graph.posterior_marginal(parent.slot)
        # particle 0: ordinary Kalman update toward the observation
        exact_gain = 1.0 / (1.0 + 0.5)
        assert mean[0] == pytest.approx(exact_gain * 2.0)
        assert post_var[0] == pytest.approx(1.0 - exact_gain)
        # particle 1: masked out — prior untouched
        assert mean[1] == 0.0
        assert post_var[1] == 1.0

    def test_per_particle_variance_weighting(self):
        graph = BatchedDSGraph(2)
        parent = graph.assume_root("gaussian", 0.0, 1.0)
        var = np.array([0.5, 4.0])
        child = graph.assume_conditional(ScalarAffineEdge(1.0, 0.0, var), parent)
        logw = graph.observe(child, 1.0)
        from repro.dists import Gaussian

        assert logw[0] == pytest.approx(Gaussian(0.0, 1.5).log_pdf(1.0))
        assert logw[1] == pytest.approx(Gaussian(0.0, 5.0).log_pdf(1.0))

    def test_row_ops_carry_per_particle_variance(self):
        graph = BatchedDSGraph(4)
        parent = graph.assume_root(
            "gaussian", np.arange(4.0), np.array([1.0, 2.0, 3.0, 4.0])
        )
        gathered = graph.batch_gather(np.array([3, 1, 1, 0]))
        mean, var = gathered.posterior_marginal(parent.slot)
        assert mean.tolist() == [3.0, 1.0, 1.0, 0.0]
        assert var.tolist() == [4.0, 2.0, 2.0, 1.0]
        left = graph.batch_slice(0, 2)
        merged = left.batch_concat([graph.batch_slice(2, 4)])
        _, var2 = merged.posterior_marginal(parent.slot)
        assert var2.tolist() == [1.0, 2.0, 3.0, 4.0]


class TestTreeShapes:
    def test_beta_branch_beside_gaussian_chain(self):
        """The Outlier shape: two chains in one graph, lockstep."""
        graph = BatchedDSGraph(3, rng=np.random.default_rng(0))
        ctx = BatchedDelayedCtx(graph)
        x = ctx.sample(gaussian(0.0, 1.0))
        prob = ctx.sample(beta(1.0, 1.0))
        flag = ctx.value(ctx.sample(bernoulli(prob)))
        ctx.observe(gaussian(x, 1.0), 0.4)
        assert flag.shape == (3,)
        assert np.asarray(ctx.log_weight).shape == (3,)
        families = {graph.family[s] for s in graph.live_slots()}
        assert {"gaussian", "beta"} <= families

    def test_graft_prunes_sibling_marginalized_branch(self):
        """Grafting one child of a shared parent sample-realizes the
        sibling marginalized sub-path — the whole-population prune."""
        graph = BatchedDSGraph(5, rng=np.random.default_rng(3))
        root = graph.assume_root("gaussian", 0.0, 1.0)
        first = graph.assume_conditional(ScalarAffineEdge(1.0, 0.0, 1.0), root)
        graph.graft(first.slot)  # root -> first is the marginalized path
        assert graph.node_state[first.slot] == MARGINALIZED
        second = graph.assume_conditional(ScalarAffineEdge(1.0, 0.0, 1.0), root)
        graph.graft(second.slot)  # must prune `first` (realize by sampling)
        assert graph.node_state[first.slot] == REALIZED
        assert graph.node_state[second.slot] == MARGINALIZED
        assert np.asarray(graph.value_[first.slot]).shape == (5,)

    def test_realize_with_marginal_child_still_rejected(self):
        graph = BatchedDSGraph(2)
        parent = graph.assume_root("gaussian", 0.0, 1.0)
        child = graph.assume_conditional(ScalarAffineEdge(1.0, 0.0, 1.0), parent)
        graph.graft(child.slot)
        with pytest.raises(GraphError):
            graph.realize(parent.slot, np.zeros(2))


# ----------------------------------------------------------------------
# the Outlier model on the generic graph
# ----------------------------------------------------------------------
class TestOutlierOnGenericGraph:
    def test_sds_routes_to_graph_engine(self):
        engine = infer(
            OutlierModel(), n_particles=8, method="sds", backend="vectorized"
        )
        assert isinstance(engine, VectorizedGaussianChainSDS)
        assert isinstance(engine.model, GraphOutlierModel)

    def test_bds_routes_to_graph_engine(self):
        engine = infer(
            OutlierModel(), n_particles=8, method="bds", backend="vectorized"
        )
        assert isinstance(engine, VectorizedGaussianChainSDS)
        assert engine.mode == "bds"

    def test_sds_bitwise_identical_to_retired_oracle(self):
        """The generic graph performs the bespoke engine's masked-blend
        arithmetic op-for-op: same seed, same floats."""
        generic = infer(
            OutlierModel(), n_particles=64, method="sds", backend="vectorized",
            seed=3,
        )
        oracle = VectorizedOutlierSDS(OutlierModel(), n_particles=64, seed=3)
        gm, gv, gdist, _ = run_stream(generic, ODATA.observations)
        om, ov, odist, _ = run_stream(oracle, ODATA.observations)
        assert np.array_equal(gm, om)
        assert np.array_equal(gv, ov)
        assert np.array_equal(gdist.mus, odist.mus)
        assert np.array_equal(gdist.weights, odist.weights)

    def test_sds_agrees_with_scalar_sds_in_law(self):
        def final_means(build):
            means = []
            for seed in range(4):
                engine = build(seed)
                m, _, _, _ = run_stream(engine, ODATA.observations)
                means.append(m[-1])
            return np.mean(means)

        generic = final_means(
            lambda seed: infer(
                OutlierModel(), n_particles=400, method="sds",
                backend="vectorized", seed=seed,
            )
        )
        scalar = final_means(
            lambda seed: infer(
                OutlierModel(), n_particles=400, method="sds", seed=seed + 10,
            )
        )
        assert generic == pytest.approx(scalar, abs=0.3)

    def test_bds_agrees_with_scalar_bds_in_law(self):
        def final_means(build):
            means = []
            for seed in range(4):
                engine = build(seed)
                m, _, _, _ = run_stream(engine, ODATA.observations)
                means.append(m[-1])
            return np.mean(means)

        generic = final_means(
            lambda seed: infer(
                OutlierModel(), n_particles=400, method="bds",
                backend="vectorized", seed=seed,
            )
        )
        scalar = final_means(
            lambda seed: infer(
                OutlierModel(), n_particles=400, method="bds", seed=seed + 10,
            )
        )
        assert generic == pytest.approx(scalar, abs=0.3)

    def test_sds_memory_constant_over_time(self):
        engine = infer(
            OutlierModel(), n_particles=8, method="sds", backend="vectorized",
            seed=0,
        )
        data = outlier_data(40, seed=9)
        state = engine.init()
        words = []
        for obs in data.observations:
            _, state = engine.step(state, obs)
            words.append(engine.memory_words(state))
        assert words[-1] == words[5]  # constant live words, no history

    def test_output_is_gaussian_mixture(self):
        engine = infer(
            OutlierModel(), n_particles=8, method="sds", backend="vectorized",
            seed=0,
        )
        _, _, dist, _ = run_stream(engine, ODATA.observations[:4])
        assert isinstance(dist, GaussianMixtureArray)

    def test_beta_output_lifts_to_mixture(self):
        """A model reporting the Beta slot yields a BetaMixtureArray."""

        class OutlierProbModel(GraphOutlierModel):
            def step(self, state, yobs, ctx):
                _, new_state = super().step(state, yobs, ctx)
                return new_state[1], new_state  # output the Beta variable

        engine = VectorizedGaussianChainSDS(
            OutlierProbModel(OutlierModel()), mode="sds", n_particles=6, seed=0
        )
        _, _, dist, _ = run_stream(engine, ODATA.observations[:5])
        assert isinstance(dist, BetaMixtureArray)

    def test_bernoulli_output_lifts_to_bernoulli(self):
        """A model reporting the indicator's marginal yields a Bernoulli."""

        class IndicatorModel(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx: ProbCtx):
                prob = ctx.sample(beta(2.0, 8.0)) if state is None else state
                flag = ctx.sample(bernoulli(prob))
                ctx.observe(gaussian(0.0, 1.0), yobs)
                return flag, prob

        engine = VectorizedGaussianChainSDS(
            IndicatorModel(), mode="sds", n_particles=5, seed=0
        )
        dist, _ = engine.step(engine.init(), 0.1)
        assert isinstance(dist, Bernoulli)
        assert dist.p == pytest.approx(0.2)


class TestCoinBdsOnGenericGraph:
    def test_bds_routes_to_graph_engine(self):
        engine = infer(
            CoinModel(), n_particles=8, method="bds", backend="vectorized"
        )
        assert isinstance(engine, VectorizedGaussianChainSDS)
        assert engine.mode == "bds"

    def test_bds_agrees_with_scalar_bds_in_law(self):
        observations = [True, True, False, True, True, False, True]

        def final_mean(build):
            means = []
            for seed in range(6):
                m, _, _, _ = run_stream(build(seed), observations)
                means.append(m[-1])
            return np.mean(means)

        generic = final_mean(
            lambda seed: infer(
                CoinModel(), n_particles=300, method="bds",
                backend="vectorized", seed=seed,
            )
        )
        scalar = final_mean(
            lambda seed: infer(CoinModel(), n_particles=300, method="bds",
                               seed=seed + 20)
        )
        assert generic == pytest.approx(scalar, abs=0.08)


# ----------------------------------------------------------------------
# executor bit-identity for a tree-shaped model
# ----------------------------------------------------------------------
class TestExecutorBitIdentity:
    @pytest.mark.parametrize(
        "executor",
        ["serial", "threads:2", "processes-persistent:2"],
    )
    def test_outlier_sds_matches_serial_reference(self, executor):
        def run(executor_spec):
            engine = infer(
                OutlierModel(), n_particles=200, method="sds",
                backend="vectorized", seed=0, executor=executor_spec,
            )
            state = engine.init()
            means = []
            for obs in ODATA.observations[:12]:
                dist, state = engine.step(state, obs)
                means.append(dist.mean())
            if hasattr(state, "release"):
                state.release()
            return np.asarray(means)

        reference = run("serial")
        assert np.array_equal(reference, run(executor))


# ----------------------------------------------------------------------
# the degradation ladder: per-slot realization, then scalar migration
# ----------------------------------------------------------------------
class NonlinearAtK(ProbNode):
    """A Gaussian chain whose transition turns quadratic at step k."""

    def __init__(self, k: int = 3):
        self.k = k

    def init(self):
        return (0, None)

    def step(self, state, yobs, ctx: ProbCtx):
        t, prev = state
        if prev is None:
            x = ctx.sample(gaussian(0.0, 4.0))
        elif t >= self.k:
            x = ctx.sample(gaussian(prev * prev, 1.0))  # non-affine
        else:
            x = ctx.sample(gaussian(prev, 1.0))
        ctx.observe(gaussian(x, 0.5), yobs)
        return x, (t + 1, x)


class WithinStepNonlinear(ProbNode):
    """Observation mean quadratic in the *unrealized* draw from step k."""

    def __init__(self, k: int = 3):
        self.k = k

    def init(self):
        return (0, None)

    def step(self, state, yobs, ctx: ProbCtx):
        t, prev = state
        x = ctx.sample(gaussian(0.0 if prev is None else prev, 1.0))
        if t >= self.k:
            ctx.observe(gaussian(x * x, 0.5), yobs)
        else:
            ctx.observe(gaussian(x, 0.5), yobs)
        return x, (t + 1, x)


class UnsupportedAtK(ProbNode):
    """A Gaussian chain that samples an unbatchable family at step k.

    ``uniform`` has no SoA slot kernels, so the batched graph cannot
    express the step at all — per-slot realization does not apply and
    the engine must migrate the population to the scalar delayed
    sampler (the ladder's last resort).
    """

    def __init__(self, k: int = 3):
        self.k = k

    def init(self):
        return (0, None)

    def step(self, state, yobs, ctx: ProbCtx):
        t, prev = state
        x = ctx.sample(gaussian(0.0 if prev is None else prev, 1.0))
        ctx.observe(gaussian(x, 0.5), yobs)
        if t >= self.k:
            ctx.value(ctx.sample(uniform(0.0, 1.0)))  # no batched kernels
        return x, (t + 1, x)


OBS = [0.1, 0.2, -0.1, 0.4, 0.3, 0.2, 0.5]


class TestRealizeAndContinue:
    def test_nonlinear_transition_stays_on_graph(self):
        """The quadratic transition realizes the previous slot and keeps
        the stream on the batched graph — no warning, no migration."""
        engine = VectorizedGaussianChainSDS(
            NonlinearAtK(3), mode="sds", n_particles=20, seed=0
        )
        state = engine.init()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any RuntimeWarning fails
            means = []
            for y in OBS:
                dist, state = engine.step(state, y)
                means.append(dist.mean())
        assert not isinstance(state, ScalarFallbackState)
        assert engine._scalar_engine is None
        assert len(means) == len(OBS) and np.all(np.isfinite(means))

    def test_within_step_nonlinearity_stays_on_graph_under_bds(self):
        engine = VectorizedGaussianChainSDS(
            WithinStepNonlinear(3), mode="bds", n_particles=20, seed=0
        )
        state = engine.init()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y in OBS[:5]:
                dist, state = engine.step(state, y)
        assert not isinstance(state, ScalarFallbackState)
        assert engine._scalar_engine is None


class TestScalarFallback:
    def test_sds_falls_back_midstream(self):
        engine = VectorizedGaussianChainSDS(
            UnsupportedAtK(3), mode="sds", n_particles=20, seed=0
        )
        state = engine.init()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            means = []
            for y in OBS:
                dist, state = engine.step(state, y)
                means.append(dist.mean())
        fragment_warnings = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "fragment" in str(w.message)
        ]
        assert len(fragment_warnings) == 1  # one-time warning
        assert isinstance(state, ScalarFallbackState)
        assert len(means) == len(OBS) and np.all(np.isfinite(means))
        from repro.inference.engine import StreamingDelayedSampler

        assert isinstance(engine._scalar_engine, StreamingDelayedSampler)

    def test_bds_falls_back_on_unsupported_family(self):
        engine = VectorizedGaussianChainSDS(
            UnsupportedAtK(3), mode="bds", n_particles=20, seed=0
        )
        state = engine.init()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for y in OBS[:5]:
                dist, state = engine.step(state, y)
        assert isinstance(state, ScalarFallbackState)
        assert sum(
            "fragment" in str(w.message) for w in caught
        ) == 1
        from repro.inference.engine import BoundedDelayedSampler

        assert isinstance(engine._scalar_engine, BoundedDelayedSampler)

    def test_bds_handles_realized_nonlinearity_without_fallback(self):
        """x_t ~ N(pre(x)^2, v) stays inside the fragment under BDS: the
        previous state is realized, so the square is a constant."""
        engine = VectorizedGaussianChainSDS(
            NonlinearAtK(3), mode="bds", n_particles=20, seed=0
        )
        state = engine.init()
        for y in OBS:
            dist, state = engine.step(state, y)
        assert not isinstance(state, ScalarFallbackState)
        assert engine._scalar_engine is None

    def test_fallback_migrates_weights_and_state(self):
        """Accumulated log-weights survive the migration particle by
        particle (resampling is off, so they are observable)."""
        engine = VectorizedGaussianChainSDS(
            UnsupportedAtK(1), mode="sds", n_particles=6, seed=5,
            resample_threshold=0.0,  # never resample: weights accumulate
        )
        state = engine.init()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for t, y in enumerate(OBS[:2]):
                _, state = engine.step(state, y)
                if t == 0:
                    pre_fallback = np.array(state.log_weights)
        assert isinstance(state, ScalarFallbackState)
        particles = state.particles
        assert len(particles) == 6
        # every particle carries its own scalar state and graph (the
        # replayed scalar SDS step leaves a symbolic reference again)
        from repro.symbolic import RVar

        for particle in particles:
            step_count, x = particle.state
            assert step_count == 2
            assert isinstance(x, RVar)
            assert particle.graph is not None
        # the failed step was replayed on the scalar engine: weights are
        # pre-fallback weights plus one scalar observe contribution
        post = np.array([p.log_weight for p in particles])
        assert np.all(post <= pre_fallback)  # log-densities here are < 0

    def test_fallback_with_threads_executor(self):
        engine = VectorizedGaussianChainSDS(
            UnsupportedAtK(2), mode="sds", n_particles=16, seed=1,
            executor="threads:2",
        )
        state = engine.init()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for y in OBS[:4]:
                dist, state = engine.step(state, y)
        assert isinstance(state, ScalarFallbackState)
        assert sum("fragment" in str(w.message) for w in caught) == 1
        assert np.isfinite(dist.mean())

    def test_first_step_fallback(self):
        """A model outside the fragment from step one still runs."""

        class ImmediatelyUnsupported(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx: ProbCtx):
                x = ctx.sample(gaussian(0.0, 1.0))
                ctx.observe(gaussian(x, 0.5), yobs)
                ctx.value(ctx.sample(uniform(0.0, 1.0)))
                return x, x

        engine = VectorizedGaussianChainSDS(
            ImmediatelyUnsupported(), mode="sds", n_particles=8, seed=0
        )
        with pytest.warns(RuntimeWarning, match="fragment"):
            dist, state = engine.step(engine.init(), 0.3)
        assert isinstance(state, ScalarFallbackState)
        assert np.isfinite(dist.mean())
