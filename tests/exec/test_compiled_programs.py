"""Compiled surface programs on every executor.

A compiled node carries Python code generated from its muF image, which
does not pickle; process executors pickle the model into their workers,
so the node must travel as its muF terms and regenerate its code there.
Posteriors must stay bit-identical to the serial run.
"""

import pickle

import numpy as np
import pytest

from repro.bench.paper_sources import load_paper_node
from repro.exec import shutdown_executors
from repro.inference import infer
from repro.inference.contexts import SamplingCtx

OBSERVATIONS = [0.3, 1.1, 0.4, 2.0, 1.7, 2.9, 2.2, 3.5]
EXECUTORS = ["threads:2", "processes:2", "processes-persistent:2"]


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
