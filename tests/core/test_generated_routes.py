"""The kernel-AST verdict predicts the route of generated programs.

Hypothesis draws probabilistic kernel programs (``programs(prob=True)``
of test_random_programs.py). Whenever the verdict of node ``n`` is
batchable and bounded, ``infer(..., method="sds", backend="auto")`` must
build the batched graph engine, which must run the stream without a
scalar fallback and give the scalar engine's posterior means.
"""

import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st
from test_random_programs import input_streams, programs

from repro.analysis import analyze_node
from repro.core import load
from repro.inference import infer
from repro.obs import metrics_snapshot
from repro.vectorized import VectorizedGaussianChainSDS


def _fallbacks() -> float:
    return sum(
        v
        for k, v in metrics_snapshot()["counters"].items()
        if k.startswith("repro_scalar_fallback_total")
    )


def _means(engine, inputs):
    state, means = engine.init(), []
    for inp in inputs:
        dist, state = engine.step(state, inp)
        means.append(float(dist.mean()))
    return means


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
        batched = _means(engine, inputs)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert _fallbacks() == before
    scalar = _means(
        infer(module.prob_node("n"), n_particles=10, method="sds", seed=seed),
        inputs,
    )
    for b, s in zip(batched, scalar):
        assert math.isclose(b, s, rel_tol=1e-6, abs_tol=1e-12), (batched, scalar)
