"""The empirical delayed-sampling structure probe: the analysis's oracle.

The static analysis (:mod:`repro.analysis`) decides without running a
model whether it fits the batched delayed-sampling graph. This probe
answers the same question the slow way, by running it, and the
cross-check tests hold the two accountable to each other model by
model (``test_crosscheck.py``).

:func:`probe_ds_structure` first runs the scalar model against an
instrumented pointer-minimal graph over a short probe input stream,
reporting the conjugacy families touched, how many realizations were
forced outside ``observe``, and the shape of the structure
(``"chain"`` when one sampled variable line exists, ``"tree"`` when a
step assumes several sampled roots — the Outlier model's Beta branch
beside its position chain). A model whose families all have batched
kernels is then run on a small :class:`BatchedDSGraph`: only a model
whose batched execution actually succeeds is reported batchable.
"""

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Set

import numpy as np

from repro.delayed.streaming import StreamingGraph


@dataclass(frozen=True)
class DSStructureReport:
    """What the delayed-sampling structure probe observed.

    ``is_batchable`` is the verdict: the model can run on the generic
    batched DS graph. ``families`` is the conjugacy family set touched,
    ``forced`` the number of realizations outside ``observe`` (allowed
    here — forced per-particle values may feed parameters, never
    control flow), ``shape`` is ``"chain"`` or ``"tree"``, and
    ``reason`` says why a model was rejected.
    """

    is_batchable: bool
    families: frozenset = frozenset()
    forced: int = 0
    steps: int = 0
    shape: str = "chain"
    reason: str = ""


class _ProbeGraph(StreamingGraph):
    """A streaming graph that records families, roots, and realizations."""

    def __init__(self, rng: Optional[np.random.Generator] = None):
        super().__init__(rng=rng)
        self.families: Set[str] = set()
        self.observed = 0
        #: sampled (non-observation) roots assumed in the current step.
        self.step_sample_roots = 0
        #: max simultaneous sampled roots over any probed step.
        self.max_sample_roots = 0

    def assume_root(self, marginal, name=""):
        node = super().assume_root(marginal, name=name)
        self.families.add(node.family)
        if not name.startswith("y"):
            self.step_sample_roots += 1
            self.max_sample_roots = max(
                self.max_sample_roots, self.step_sample_roots
            )
        return node

    def assume_conditional(self, cdistr, parent, name=""):
        node = super().assume_conditional(cdistr, parent, name=name)
        self.families.add(node.family)
        return node

    def observe(self, node, value):
        self.observed += 1
        return super().observe(node, value)

    def next_step(self) -> None:
        self.step_sample_roots = 0


def _run_scalar_probe(model: Any, inputs: Sequence[Any], seed: int):
    """Step the scalar delayed-sampling semantics; return (graph, steps, err)."""
    from repro.inference.contexts import DelayedCtx

    graph = _ProbeGraph(rng=np.random.default_rng(seed))
    ctx = DelayedCtx(graph)
    steps = 0
    # Broad catch on purpose: the probe's contract is to *report*, never
    # to raise.
    try:
        state = model.init()
    except Exception as exc:
        return graph, steps, (
            f"probe failed [stage=init]: {type(exc).__name__}: {exc}"
        )
    try:
        for inp in inputs:
            graph.next_step()
            _, state = model.step(state, inp, ctx)
            steps += 1
    except Exception as exc:
        return graph, steps, f"probe step raised {type(exc).__name__}: {exc}"
    return graph, steps, None


def _run_batched_probe(
    model: Any, inputs: Sequence[Any], seed: int, n: int
) -> Optional[str]:
    """Smoke-run the model on a small batched graph; None means success.

    Every exception — including ones outside the anticipated
    graph/symbolic/inference family, e.g. a numpy shape error or an
    ``AttributeError`` in user model code — becomes a stage-tagged
    reason string, and the smoke run touches no global registries.
    """
    from repro.vectorized.sds_graph import BatchedDelayedCtx, BatchedDSGraph

    graph = BatchedDSGraph(n, rng=np.random.default_rng(seed))
    ctx = BatchedDelayedCtx(graph)
    try:
        state = model.init()
    except Exception as exc:
        return (
            f"batched probe failed [stage=init]: "
            f"{type(exc).__name__}: {exc}"
        )
    for i, inp in enumerate(inputs):
        try:
            _, state = model.step(state, inp, ctx)
        except Exception as exc:
            return (
                f"batched probe failed [stage=step index={i}]: "
                f"{type(exc).__name__}: {exc}"
            )
    return None


def probe_ds_structure(
    model: Any,
    inputs: Sequence[Any],
    seed: int = 0,
    batch_check: int = 3,
) -> DSStructureReport:
    """Run ``model`` over ``inputs``; report families, shape, batchability.

    The scalar probe collects the family set, the forced-realization
    count, and the structure shape; a model whose families all have
    batched kernels is then *verified* by a ``batch_check``-particle
    batched smoke run — a forced per-particle value that feeds a
    parameter batches fine, one that feeds an ``if`` does not, and only
    actually running the batched semantics tells them apart.
    """
    from repro.vectorized.sds_graph import FAMILY_KERNELS

    if not inputs:
        return DSStructureReport(False, reason="no probe inputs provided")
    graph, steps, error = _run_scalar_probe(model, inputs, seed)
    families = frozenset(graph.families)
    forced = max(0, graph.n_realized - graph.observed)
    shape = "tree" if graph.max_sample_roots >= 2 else "chain"
    if error is not None:
        return DSStructureReport(
            False, families, forced, steps, shape, reason=error
        )
    if not families <= FAMILY_KERNELS.keys():
        extra = sorted(families - FAMILY_KERNELS.keys())
        return DSStructureReport(
            False, families, forced, steps, shape,
            reason=f"families without batched kernels: {extra}",
        )
    reason = _run_batched_probe(model, inputs, seed, batch_check)
    if reason is not None:
        return DSStructureReport(False, families, forced, steps, shape, reason)
    return DSStructureReport(True, families, forced, steps, shape)
