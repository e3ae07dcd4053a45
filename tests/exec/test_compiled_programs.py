"""Compiled surface programs on every executor.

A compiled node carries Python code generated from its muF image, which
does not pickle; the process executor pickles the model into its
workers, so the node must travel as its muF terms and regenerate its
code there.
Posteriors must stay bit-identical to the serial run, on the scalar
engines (``backend="scalar"``) and on the batched graph engine that
``backend="auto"`` picks for sds and bds.
"""

import pickle

import numpy as np
import pytest

from repro.bench.paper_sources import PAPER_SOURCES, load_paper_node
from repro.core.compiled import CompiledProbNode, load
from repro.exec import shutdown_executors
from repro.frontend import parse_program
from repro.inference import infer
from repro.inference.contexts import SamplingCtx
from repro.obs import metrics_snapshot
from repro.vectorized import VectorizedGaussianChainSDS

OBSERVATIONS = [0.3, 1.1, 0.4, 2.0, 1.7, 2.9, 2.2, 3.5]
FLIPS = [True, False, True, True, False, True, True, True]
EXECUTORS = ["threads:2", "processes-persistent:2"]


@pytest.fixture(scope="module", autouse=True)
def _release_pools():
    yield
    shutdown_executors()


def posterior_means(node, executor="serial"):
    engine = infer(node, n_particles=16, method="sds", seed=11, executor=executor)
    state = engine.init()
    means = []
    for obs in OBSERVATIONS:
        dist, state = engine.step(state, obs)
        means.append(dist.mean())
    return np.asarray(means)


@pytest.fixture(scope="module")
def serial_means():
    return posterior_means(load_paper_node("hmm"))


@pytest.mark.parametrize("executor", EXECUTORS)
def test_executor_matches_serial(serial_means, executor):
    means = posterior_means(load_paper_node("hmm"), executor)
    assert np.array_equal(means, serial_means)


def test_unpickled_node_steps_identically(serial_means):
    node = load_paper_node("hmm")
    copy = pickle.loads(pickle.dumps(node))
    assert np.array_equal(posterior_means(copy), serial_means)
    state_a, state_b = node.init(), copy.init()
    ctx_a = SamplingCtx(np.random.default_rng(5))
    ctx_b = SamplingCtx(np.random.default_rng(5))
    for obs in OBSERVATIONS:
        out_a, state_a = node.step(state_a, obs, ctx_a)
        out_b, state_b = copy.step(state_b, obs, ctx_b)
        assert out_a == out_b and state_a == state_b
    assert ctx_a.log_weight == ctx_b.log_weight


def test_pickled_node_carries_no_program():
    """Workers only step a node, so its kernel program stays behind and
    every shard task pickles exactly what a program-less node does."""
    node = load_paper_node("hmm")
    assert node.program is not None
    bare = CompiledProbNode(node.init(), node._step, None, None)
    assert pickle.dumps(node) == pickle.dumps(bare)
    copy = pickle.loads(pickle.dumps(node))
    assert copy.program is None and copy.name is None


def batched_means(name, method, executor):
    engine = infer(
        load_paper_node(name), n_particles=16, method=method, seed=11,
        backend="auto", executor=executor,
    )
    assert isinstance(engine, VectorizedGaussianChainSDS)
    state = engine.init()
    means = []
    for obs in FLIPS if name == "coin" else OBSERVATIONS:
        dist, state = engine.step(state, obs)
        means.append(dist.mean())
    return np.asarray(means)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("method", ["sds", "bds"])
@pytest.mark.parametrize("name", sorted(PAPER_SOURCES))
def test_batched_executor_matches_serial(name, method, executor):
    serial = batched_means(name, method, "serial")
    assert np.array_equal(batched_means(name, method, executor), serial)


#: The Section-2 HMM with ``pre x`` read twice: its state holds one slot
#: twice, and the two references must stay one variable in every copy of
#: the graph, on every executor.
DOUBLE_READ_SOURCE = """
let node n y = x where
  rec x = sample (gaussian (0. -> 0.5 *. pre x +. 0.5 *. pre x, 1.))
  and () = observe (gaussian (x, 1.), y)
"""


def kalman_means(observations):
    """Filtering means of x0 ~ N(0, 1), x = pre x + N(0, 1), y ~ N(x, 1)."""
    mean, var, means = 0.0, 1.0, []
    for t, y in enumerate(observations):
        if t > 0:
            var += 1.0
        gain = var / (var + 1.0)
        mean, var = mean + gain * (y - mean), (1.0 - gain) * var
        means.append(mean)
    return np.asarray(means)


def slot_realizations():
    return sum(
        value
        for key, value in metrics_snapshot()["counters"].items()
        if key.startswith("repro_slot_realizations_total")
    )


@pytest.mark.parametrize("executor", ["serial"] + EXECUTORS)
def test_state_reading_one_slot_twice_stays_exact(executor):
    node = load(parse_program(DOUBLE_READ_SOURCE)).prob_node("n")
    engine = infer(
        node, n_particles=50, method="sds", seed=0, backend="auto",
        executor=executor, resample_threshold=0.5,
    )
    assert isinstance(engine, VectorizedGaussianChainSDS)
    before = slot_realizations()
    state, means = engine.init(), []
    for obs in OBSERVATIONS:
        dist, state = engine.step(state, obs)
        means.append(dist.mean())
    np.testing.assert_allclose(means, kalman_means(OBSERVATIONS), rtol=0, atol=1e-9)
    # Worker-resident shards count in their workers, so this reads 0 there.
    assert slot_realizations() == before
