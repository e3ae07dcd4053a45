"""The kernel-AST verdict predicts the route of generated programs.

Hypothesis draws probabilistic kernel programs (``programs(prob=True)``
of test_random_programs.py). Whenever the verdict of node ``n`` is
batchable and bounded, ``infer(..., method="sds", backend="auto")`` must
build the batched graph engine, which must run the stream without a
scalar fallback and give the scalar engine's posterior means.

The means are equal at equal seeds while each particle draws at most one
value per instant. Where an instant draws more (an output such as
``sample (...) + x0`` forces two variables per particle), the batched
graph draws them variable by variable and the scalar engine particle by
particle, so from that instant on the two are compared in law instead:
at a larger particle count, within a bound set by their standard errors.
"""

import math
import warnings
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_random_programs import input_streams, programs

from repro.analysis import analyze_node
from repro.core import load
from repro.core.ast import Const, Eq, NodeDecl, Op, PreE, Program, Sample, Var, Where
from repro.inference import infer
from repro.obs import metrics_snapshot
from repro.vectorized import VectorizedGaussianChainSDS
from repro.vectorized.sds_graph import BatchedDSGraph

#: particles per engine, and the bound in standard errors, of the check in law
LAW_PARTICLES = 2000
LAW_BOUND = 6.0


def _sample_gaussian(mean, var):
    return Sample(Op("gaussian", (mean, Const(var))))


#: ``x1 = sample (gaussian (pre (pre u), 1.)) + x0`` with ``x0 = sample
#: (gaussian (0., 0.5))``: returning ``x1`` forces both variables, and at
#: 10 particles and seed 0 the batched mean read -0.2343, the scalar one
#: -0.3615 (they agree to 0.002 at 20,000 particles).
TWO_DRAWS = Program((NodeDecl("n", ("u",), Where(Var("x1"), (
    Eq("x0", _sample_gaussian(Const(0.0), 0.5)),
    Eq("x1", Op("add", (_sample_gaussian(PreE(PreE(Var("u"))), 1.0), Var("x0")))),
))),))


def _fallbacks() -> float:
    return sum(
        v
        for k, v in metrics_snapshot()["counters"].items()
        if k.startswith("repro_scalar_fallback_total")
    )


def _means_and_draws(engine, inputs):
    """Posterior means, and how many batched draws (values per particle)
    the batched graph made at each instant (none on the scalar engine)."""
    with mock.patch.object(
        BatchedDSGraph, "_sample", autospec=True, side_effect=BatchedDSGraph._sample
    ) as sample:
        state, means, draws = engine.init(), [], []
        for inp in inputs:
            before = sample.call_count
            dist, state = engine.step(state, inp)
            means.append(float(dist.mean()))
            draws.append(sample.call_count - before)
    return means, draws


def _moments(engine, inputs):
    state, moments = engine.init(), []
    for inp in inputs:
        dist, state = engine.step(state, inp)
        moments.append(
            (float(dist.mean()), float(dist.variance()), engine.last_stats.ess)
        )
    return moments


def _assert_equal_in_law(module, inputs, seed, first):
    """From instant ``first`` on, the means agree within ``LAW_BOUND``
    standard errors (posterior variance over ESS, both engines)."""
    batched, scalar = (
        _moments(
            infer(
                module.prob_node("n"), n_particles=LAW_PARTICLES, method="sds",
                seed=seed + k, backend=backend,
            ),
            inputs,
        )
        for k, backend in enumerate(("auto", "scalar"))
    )
    for i in range(first, len(inputs)):
        (mb, vb, eb), (ms, vs, es) = batched[i], scalar[i]
        bound = LAW_BOUND * math.sqrt(vb / eb + vs / es) + 1e-9 * (1.0 + abs(ms))
        assert abs(mb - ms) <= bound, (i, batched, scalar)


@example(prog=TWO_DRAWS, inputs=[0.0], seed=0)
@settings(max_examples=120, deadline=None)
@given(
    prog=programs(prob=True),
    inputs=input_streams(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_batchable_verdict_runs_on_graph_engine(prog, inputs, seed):
    analysis = analyze_node(prog, "n")
    if not (analysis.batchable and analysis.bounded):
        return
    module = load(prog)
    before = _fallbacks()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        engine = infer(
            module.prob_node("n"), n_particles=10, method="sds", seed=seed,
            backend="auto",
        )
        assert isinstance(engine, VectorizedGaussianChainSDS)
        batched, draws = _means_and_draws(engine, inputs)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert _fallbacks() == before
    scalar, _ = _means_and_draws(
        infer(module.prob_node("n"), n_particles=10, method="sds", seed=seed),
        inputs,
    )
    exact = next((i for i, count in enumerate(draws) if count > 1), len(inputs))
    for b, s in zip(batched[:exact], scalar[:exact]):
        assert math.isclose(b, s, rel_tol=1e-6, abs_tol=1e-12), (batched, scalar)
    if exact < len(inputs):
        _assert_equal_in_law(module, inputs, seed, exact)
