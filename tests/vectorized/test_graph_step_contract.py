"""What one unsharded step of the batched graph engine may touch.

An SDS step copies the graph's slot structure once and runs the model
state as it is against that copy, since its RVars name slots, which the
copy keeps; its resample gathers the state that step built in place. So
the state a caller passes in must come back as it was: the slot lists,
the slot arrays, the model state and the log-weights. And stepping that
same state again, on a second engine whose generator is at the same
point, must give the same posterior bit for bit.

Sharded states are left out: their shard generators live in the state
and advance by design.
"""

import numpy as np
import pytest

from repro.bench import OutlierModel
from repro.bench.paper_sources import load_paper_node
from repro.inference import infer
from repro.symbolic.expr import App, BatchConst, RVar, map_leaves, structure_rvars
from repro.vectorized import BatchedDSGraph, ChainState, VectorizedGaussianChainSDS
from repro.vectorized import sds_graph

OBS = [0.4, -1.2, 0.9, 35.0, 1.1, 0.3]
N = 16

#: slot lists of a BatchedDSGraph, compared entry by entry.
SLOT_LISTS = ("node_state", "parent", "marginal_child", "folded", "family",
              "children", "name", "_free")
#: slot lists whose entries are per-particle or shared arrays.
SLOT_ARRAYS = ("mean", "var", "value_")


def _print(value):
    """A value as plain data: arrays as bytes, RVars as their slot."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, RVar):
        return ("rvar", value.node.slot)
    if isinstance(value, BatchConst):
        return ("const", _print(value.values))
    if isinstance(value, App):
        return ("app", value.op, tuple(_print(a) for a in value.args))
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (bool, int, float, str, type(None))):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_print(v) for v in value)
    # Edges: their type and fields.
    fields = type(value).__slots__
    return (type(value).__name__,) + tuple(_print(getattr(value, f)) for f in fields)


def fingerprint(batch):
    """Everything a step could change in a ParticleBatch of ChainStates."""
    state = batch.state
    assert isinstance(state, ChainState)
    graph = state.graph
    model = map_leaves(state.model_state, _print)
    printed = {"log_weights": _print(batch.log_weights), "n": state.n,
               "model_state": model, "graph": None}
    if graph is not None:
        printed["graph"] = {
            **{name: [_print(v) for v in getattr(graph, name)] for name in SLOT_LISTS},
            **{name: [_print(v) for v in getattr(graph, name)] for name in SLOT_ARRAYS},
            "n": graph.n,
        }
        # Every RVar names a live slot of this graph, of its family.
        for node in structure_rvars(state.model_state):
            assert graph.node_state[node.slot] != sds_graph.FREE
            assert graph.family[node.slot] == node.family
    return printed


def outlier():
    return OutlierModel()


def hmm():
    return load_paper_node("hmm")


def engine_for(make_model, method, seed):
    engine = infer(make_model(), N, method=method, backend="auto", seed=seed)
    assert isinstance(engine, VectorizedGaussianChainSDS)
    assert engine.mode == method and not engine.sharded
    return engine


def run(engine, observations):
    state = engine.init()
    for obs in observations:
        _, state = engine.step(state, obs)
    return state


CELLS = [
    pytest.param(outlier, "sds", id="outlier-sds"),
    pytest.param(outlier, "bds", id="outlier-bds"),
    pytest.param(hmm, "sds", id="hmm-sds"),
    pytest.param(hmm, "bds", id="hmm-bds"),
]


@pytest.mark.parametrize("make_model,method", CELLS)
def test_step_leaves_its_input_state_as_it_was(make_model, method):
    first = engine_for(make_model, method, seed=7)
    second = engine_for(make_model, method, seed=7)
    state = run(first, OBS[:-1])
    # The second engine's generator reaches the same point as the first's.
    run(second, OBS[:-1])
    before = fingerprint(state)

    dist, after = first.step(state, OBS[-1])
    assert fingerprint(state) == before
    assert after.state is not state.state
    if method == "sds":
        assert after.state.graph is not state.state.graph

    dist_again, after_again = second.step(state, OBS[-1])
    assert fingerprint(state) == before
    assert dist_again.mean() == dist.mean()
    assert dist_again.variance() == dist.variance()
    assert fingerprint(after_again) == fingerprint(after)


STEP_KINDS = pytest.mark.parametrize(
    "threshold", [None, 0.0], ids=["resamples", "keeps"]
)
STEP_MODELS = pytest.mark.parametrize(
    "make_model", [outlier, hmm], ids=["outlier", "hmm"]
)


class TestOneStructureCopyPerStep:
    """An unsharded SDS step copies the slot structure exactly once, and
    the resample gathers into that copy. The model state is walked only
    for the sweep roots and, when the step resamples, the gather."""

    def calls_per_step(self, monkeypatch, make_model, threshold, owner, name):
        """The arguments of each call to ``owner.name``, per step."""
        engine = infer(make_model(), N, method="sds", backend="auto", seed=3,
                       resample_threshold=threshold)
        assert isinstance(engine, VectorizedGaussianChainSDS)
        state = run(engine, OBS[:2])
        calls = []
        original = getattr(owner, name)

        def counting(*args):
            calls[-1].append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, counting)
        for obs in OBS[2:]:
            calls.append([])
            _, state = engine.step(state, obs)
            # A resample resets the log-weights; a kept step accumulates them.
            assert np.any(state.log_weights != 0.0) == (threshold == 0.0)
        return calls

    @STEP_KINDS
    @STEP_MODELS
    def test_one_copy(self, monkeypatch, make_model, threshold):
        for copies in self.calls_per_step(
            monkeypatch, make_model, threshold, BatchedDSGraph, "_clone_structure"
        ):
            assert [n for _, n in copies] == [N]

    @STEP_KINDS
    @STEP_MODELS
    def test_model_state_walks(self, monkeypatch, make_model, threshold):
        walks = 2 if threshold is None else 1
        for calls in self.calls_per_step(
            monkeypatch, make_model, threshold, sds_graph, "map_leaves"
        ):
            assert len(calls) == walks
