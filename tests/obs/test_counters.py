"""Degradation-path event counters: exactly one increment per event."""

import warnings

import numpy as np
import pytest

from repro.dists.base import normalize_weights
from repro.inference.resampling import normalize_log_weights
from repro.obs.registry import default_registry
from repro.runtime.node import ProbCtx, ProbNode
from repro.lang import gaussian, uniform
from repro.vectorized.engine import (
    ScalarFallbackState,
    VectorizedGaussianChainSDS,
)


class NonlinearAtK(ProbNode):
    """A Gaussian chain whose transition turns quadratic at step k.

    Breaks conjugacy but stays expressible: the batched graph realizes
    the previous slot and continues (per-slot degradation, counted by
    ``repro_slot_realizations_total``), never migrating to scalar.
    """

    def __init__(self, k: int = 2):
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


class UnsupportedAtK(ProbNode):
    """A Gaussian chain that samples an unbatchable family at step k,
    forcing the whole-population scalar migration (the ladder's last
    resort, counted by ``repro_scalar_fallback_total``)."""

    def __init__(self, k: int = 2):
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


def counter_value(name, labels=None):
    counter = default_registry().get(name, labels)
    return 0.0 if counter is None else counter.value


class TestNanCounters:
    def test_nan_log_weights_count_per_particle(self):
        logw = np.array([0.0, np.nan, -1.0, np.nan])
        with pytest.warns(RuntimeWarning, match="NaN log-weight"):
            normalize_log_weights(logw)
        assert counter_value("repro_nan_log_weights_total") == 2.0
        # a clean call adds nothing
        normalize_log_weights(np.zeros(3))
        assert counter_value("repro_nan_log_weights_total") == 2.0

    def test_nan_mixture_weights_count_per_component(self):
        weights = np.array([0.5, np.nan, 0.5])
        with pytest.warns(RuntimeWarning, match="NaN mixture weight"):
            normalize_weights(weights)
        assert counter_value("repro_nan_mixture_weights_total") == 1.0
        normalize_weights(np.array([0.5, 0.5]))
        assert counter_value("repro_nan_mixture_weights_total") == 1.0


class TestFallbackCounter:
    def test_scalar_fallback_counts_exactly_once(self):
        engine = VectorizedGaussianChainSDS(
            UnsupportedAtK(2), mode="sds", n_particles=12, seed=3
        )
        state = engine.init()
        labels = {
            "model": "UnsupportedAtK",
            "mode": "sds",
            "reason": "unsupported-family",
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for y in [0.1, 0.2, -0.1, 0.4, 0.3]:
                _, state = engine.step(state, y)
        assert isinstance(state, ScalarFallbackState)
        # the migration happened once; later steps run scalar, no re-count
        assert counter_value("repro_scalar_fallback_total", labels) == 1.0


class TestSlotRealizationCounter:
    def test_realizations_counted_per_slot_not_migrated(self):
        """Per-slot degradation is observable separately from migration:
        the quadratic transition counts one gaussian realization per
        step from k on, and the fallback counter never moves."""
        before = counter_value(
            "repro_slot_realizations_total", {"family": "gaussian"}
        )
        engine = VectorizedGaussianChainSDS(
            NonlinearAtK(2), mode="sds", n_particles=12, seed=3
        )
        state = engine.init()
        for y in [0.1, 0.2, -0.1, 0.4, 0.3]:
            _, state = engine.step(state, y)
        assert not isinstance(state, ScalarFallbackState)
        after = counter_value(
            "repro_slot_realizations_total", {"family": "gaussian"}
        )
        # steps t=2,3,4 each break the prev*prev dependency once
        assert after - before == 3.0
        assert (
            counter_value(
                "repro_scalar_fallback_total",
                {"model": "NonlinearAtK", "mode": "sds", "reason": "structure"},
            )
            == 0.0
        )

    def test_no_fallback_no_count(self):
        from repro.bench.models import HmmModel
        from repro.inference.infer import infer

        engine = infer(
            HmmModel(), n_particles=12, seed=3, method="sds",
            backend="vectorized",
        )
        state = engine.init()
        for y in [0.1, 0.2, -0.1]:
            _, state = engine.step(state, y)
        snapshot = default_registry().snapshot()
        assert not any(
            name.startswith("repro_scalar_fallback_total")
            for name in snapshot["counters"]
        )
