"""The ``infer`` operator: engine construction by name.

``infer particles model`` in ProbZelus returns a stream of distributions;
here :func:`infer` returns the corresponding :class:`InferenceEngine`
(itself a deterministic stream node). The default method is the particle
filter, matching the paper's default operational semantics; the delayed
samplers are selected by name.

``backend`` selects the execution substrate: ``"scalar"`` (the
reference engines, one Python object per particle), ``"vectorized"``
(the structure-of-arrays engines of :mod:`repro.vectorized`, which
advance the whole particle population per array operation), or
``"auto"``. Which batched engine runs, if any, is decided in one place,
:func:`repro.vectorized.engine.make_vectorized_engine`; the scalar
engine is used automatically when the model/method pair has no
vectorized equivalent, so the parameter never changes *what* is
computed — only how fast.

``executor`` selects where the step runs (:mod:`repro.exec`):
``"serial"``, ``"threads:N"``, ``"processes-persistent:N"``
(worker-resident shards: the population stays loaded in long-lived
worker processes and only commands cross the process boundary per
step), or an
:class:`~repro.exec.executor.Executor` instance. Requesting one — or
passing ``n_shards`` — partitions the particle population into
deterministic shards with independent RNG substreams, so the posterior
is bit-for-bit identical for every executor and worker count at a
fixed seed. This knob, too, never changes *what* is computed.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.errors import InferenceError
from repro.exec.executor import Executor
from repro.inference.engine import (
    BoundedDelayedSampler,
    ImportanceSampler,
    InferenceEngine,
    OriginalDelayedSampler,
    ParticleFilter,
    StreamingDelayedSampler,
)
from repro.runtime.node import ProbNode

__all__ = ["infer", "ENGINES", "BACKENDS"]

ENGINES = {
    "importance": ImportanceSampler,
    "is": ImportanceSampler,
    "pf": ParticleFilter,
    "particle_filter": ParticleFilter,
    "bds": BoundedDelayedSampler,
    "sds": StreamingDelayedSampler,
    "ds": OriginalDelayedSampler,
}

BACKENDS = ("scalar", "vectorized", "auto")


def infer(
    model: ProbNode,
    n_particles: int = 100,
    method: str = "pf",
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    backend: str = "scalar",
    executor: Union[None, str, Executor] = None,
    n_shards: Optional[int] = None,
    diagnostics: Union[bool, "DiagnosticsLog"] = False,
    **kwargs,
) -> InferenceEngine:
    """Build an inference engine for ``model``.

    ``method`` is one of ``"pf"`` (particle filter, the default),
    ``"importance"``, ``"bds"``, ``"sds"``, or ``"ds"``. ``backend`` is
    ``"scalar"`` (default), ``"vectorized"``, or ``"auto"``; the
    vectorized backends fall back to the scalar engine when the
    model/method pair is not vectorizable. A batched
    :class:`~repro.vectorized.models.VectorizedModel` runs only under
    ``"pf"`` on a vectorized backend; anything else raises
    :class:`InferenceError`. ``executor`` selects the
    execution layer (``"serial"``, ``"threads:N"``,
    ``"processes-persistent:N"``, or an Executor instance) and
    ``n_shards`` the deterministic shard count; either switches the
    engine to a sharded population whose results are identical for
    every worker count. ``diagnostics=True`` attaches a
    :class:`~repro.inference.diagnostics.DiagnosticsLog` to the engine
    (``engine.diagnostics``), recording one
    :class:`~repro.inference.diagnostics.StepStats` per step — the same
    stream on every backend/executor combination, including across a
    mid-stream scalar fallback (pass an existing log to share it).
    Additional keyword arguments are forwarded to the engine
    constructor (``resampler``, ``resample_threshold``,
    ``clone_on_resample``).
    """
    key = method.lower()
    if key not in ENGINES:
        raise InferenceError(
            f"unknown inference method {method!r}; choose from {sorted(set(ENGINES))}"
        )
    if backend not in BACKENDS:
        raise InferenceError(
            f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}"
        )
    kwargs = dict(
        kwargs, executor=executor, n_shards=n_shards, diagnostics=diagnostics
    )
    # Imported lazily: repro.vectorized depends on the scalar engines,
    # so a module-level import here would be circular.
    from repro.vectorized.engine import make_vectorized_engine
    from repro.vectorized.models import VectorizedModel

    if backend != "scalar":
        engine = make_vectorized_engine(
            key, model, backend, n_particles=n_particles, seed=seed, rng=rng,
            **kwargs,
        )
        if engine is not None:
            return engine
    if isinstance(model, VectorizedModel):
        raise InferenceError(
            f"{type(model).__name__} is a batched VectorizedModel: it runs "
            "only under method='pf' on a vectorized backend "
            "(backend='vectorized' or 'auto')"
        )
    return ENGINES[key](model, n_particles=n_particles, seed=seed, rng=rng, **kwargs)
