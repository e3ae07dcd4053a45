"""A NaN log-weight is counted and warned about once, not every instant.

Particle 0 scores ``factor(nan)`` at instant 0 and nothing else ever
scores. Without resampling the merged log-weights are carried into the
next instant; a carried NaN reached ``normalize_log_weights`` again on
every later instant (twice: the merge and the evidence), so the counter
read 1, 3, 5, 7. Every commit site now carries ``-inf`` instead: the
serial commit of each engine family, and ``shard_commit_weights`` that
resident workers and the oplog replay call.
"""

import math
import warnings

import numpy as np
import pytest

from repro.inference.engine import ImportanceSampler
from repro.obs.registry import default_registry
from repro.runtime.node import ProbNode
from repro.vectorized.engine import VectorizedParticleFilter
from repro.vectorized.models import VectorizedModel


class OneNanParticle(ProbNode):
    """Particles are numbered at ``init``; particle 0 scores NaN once."""

    def __init__(self):
        self.issued = 0

    def init(self):
        ident = self.issued
        self.issued += 1
        return (ident, 0)

    def step(self, state, inp, ctx):
        ident, t = state
        ctx.factor(math.nan if (ident, t) == (0, 0) else 0.0)
        return float(ident), (ident, t + 1)


class OneNanParticleBatch(VectorizedModel):
    """The batched twin: ``init_batch`` numbers rows across shards."""

    def __init__(self):
        self.issued = 0

    def init_batch(self, n, rng):
        ids = np.arange(self.issued, self.issued + n)
        self.issued += n
        return (ids, np.zeros(n, dtype=int))

    def step_batch(self, state, inp, n, rng):
        ids, t = state
        logw = np.where((ids == 0) & (t == 0), np.nan, 0.0)
        return ids.astype(float), (ids, t + 1), logw


def build(family, executor):
    kwargs = dict(n_particles=4, seed=0, executor=executor)
    if family == "scalar":
        return ImportanceSampler(OneNanParticle(), **kwargs)
    return VectorizedParticleFilter(
        OneNanParticleBatch(), resample_threshold=0.0, **kwargs
    )


@pytest.mark.parametrize(
    "executor", [None, "serial", "threads:2", "processes-persistent:2"]
)
@pytest.mark.parametrize("family", ["scalar", "vectorized"])
def test_nan_log_weight_counted_and_warned_once(family, executor):
    engine = build(family, executor)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = engine.init()
        for _ in range(4):
            dist, state = engine.step(state, None)
    if hasattr(state, "release"):
        state.release()
    nan_warnings = [
        w for w in caught
        if issubclass(w.category, RuntimeWarning)
        and "NaN log-weight" in str(w.message)
    ]
    counter = default_registry().get("repro_nan_log_weights_total")
    assert counter is not None and counter.value == 1.0
    assert len(nan_warnings) == 1
    # the NaN particle keeps zero weight; the other three share it evenly
    assert np.asarray(dist.weights) == pytest.approx([0.0, 1 / 3, 1 / 3, 1 / 3])
    assert dist.mean() == pytest.approx(2.0)
