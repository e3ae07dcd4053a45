"""Analysis-first backend routing.

The glue between the static analysis and engine selection. Under
``infer(..., backend="auto")``,
:func:`~repro.vectorized.engine.make_vectorized_engine` consults the
ahead-of-time verdict first: a conclusively unbatchable model goes
straight to the scalar engines, a batchable and bounded one may get the
batched graph engine even when unregistered, and models the analysis
cannot see through (``conclusive=False``) are routed by the maps of
:mod:`repro.vectorized.models` alone. The graph engine's mid-stream
scalar migration remains the runtime confirmation.

Every consultation increments ``repro_analysis_verdicts_total{verdict}``
(always-on, like the scalar-fallback counters), so a fleet's routing
decisions are visible next to its fallbacks::

    repro_analysis_verdicts_total{verdict="batchable"}            12
    repro_analysis_verdicts_total{verdict="batchable_unbounded"}   1
    repro_analysis_verdicts_total{verdict="unbatchable"}           2
    repro_analysis_verdicts_total{verdict="inconclusive"}          3

The cache is per *model configuration* (class + constructor attribute
values; for a compiled surface node, its module's step closure), not
per instance: analyzing is cheap (a few ms) but ``infer()`` may be
called per stream session, thousands of times.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.analysis.absint import analyze_model
from repro.analysis.report import ModelAnalysis
from repro.core.compiled import CompiledProbNode

__all__ = [
    "analysis_for",
    "record_verdict",
    "consult_for_backend",
    "clear_analysis_cache",
]

_CACHE: Dict[Tuple, ModelAnalysis] = {}
_CACHE_MAX = 1024


def _attr_key(value: Any) -> Any:
    """An attribute's part of the cache key: its repr, or the object
    itself when the repr is the default ``<... at 0x...>`` one. Such a
    repr says nothing about the value — two ``FunProbNode`` step
    functions differ only in their address."""
    r = repr(value)
    if " at 0x" in r:
        hash(value)  # an unhashable one makes the model uncacheable
        return value
    return r


def _cache_key(model: Any) -> Optional[Tuple]:
    """A structural key: class plus constructor-attribute reprs.

    Two instances of the same class with the same attributes have the
    same step dataflow, so they share one analysis. A compiled surface
    node is keyed by its step closure, which its module builds once per
    node name, so every ``prob_node(name)`` of one module shares one
    analysis. Models with exotic attribute sets (unreprable, unhashable,
    huge) fall back to uncached analysis.
    """
    if isinstance(model, CompiledProbNode):
        return (type(model), model._step)
    try:
        attrs = vars(model)
    except TypeError:
        return (type(model),)
    try:
        items = tuple(sorted((k, _attr_key(v)) for k, v in attrs.items()))
    except Exception:
        return None
    if sum(len(k) + len(str(v)) for k, v in items) > 4096:
        return None
    return (type(model), items)


def analysis_for(model: Any) -> ModelAnalysis:
    """The (cached) static analysis of ``model``."""
    key = _cache_key(model)
    if key is not None and key in _CACHE:
        return _CACHE[key]
    analysis = analyze_model(model)
    if key is not None:
        if len(_CACHE) >= _CACHE_MAX:
            _CACHE.clear()
        _CACHE[key] = analysis
    return analysis


def clear_analysis_cache() -> None:
    _CACHE.clear()


def record_verdict(analysis: ModelAnalysis) -> None:
    """Count the verdict in ``repro_analysis_verdicts_total``."""
    # Imported lazily: repro.obs is optional at call sites that only
    # want the verdict.
    from repro.obs import count_event

    count_event("repro_analysis_verdicts_total", {"verdict": analysis.verdict})


def _routed_model(model: Any) -> Any:
    """The model the batched engine would actually run: the registered
    lockstep adapter's rewrite when one exists, else the model itself.

    Judging the raw model would mis-route adapted registrations — e.g.
    the Outlier model branches on a forced value (conclusively
    unbatchable), but its registration wraps it in the masked-affine
    :class:`~repro.vectorized.models.GraphOutlierModel`, which is
    squarely inside the fragment. An adapter that raises is a
    registration bug, so its error propagates.
    """
    # Imported lazily: repro.vectorized lazily imports this module for
    # registration-time verification.
    from repro.vectorized.models import DS_GRAPH_MODELS

    adapter = DS_GRAPH_MODELS.get(type(model))
    return model if adapter is None else adapter(model)


def consult_for_backend(model: Any, method_key: str) -> Tuple[ModelAnalysis, Optional[bool]]:
    """Should ``backend="auto"`` try the vectorized engines?

    Returns ``(analysis, decision)`` where ``decision`` is:

    * ``False`` — conclusively out of fragment for a delayed-sampling
      method (wrong families, lockstep violation) even after the
      registered lockstep adapter, if any: skip the vectorized maps
      entirely and build the scalar engine.
    * ``True`` — conclusively batchable *and* bounded: try the
      vectorized path, and the caller may construct a generic graph
      engine even for an unlisted model.
    * ``None`` — no static opinion (inconclusive, a method whose
      vectorization is a map entry like ``pf``, or batchable but
      unbounded — the maps may still list it, but the analysis will
      not volunteer an engine whose graph grows without bound): route
      by the maps alone, runtime fallback as last resort.

    The verdict is recorded in ``repro_analysis_verdicts_total``.
    """
    analysis = analysis_for(_routed_model(model))
    record_verdict(analysis)
    if method_key not in ("sds", "bds"):
        # pf/importance vectorization is about having a step_batch
        # implementation, which is a map entry, not a dataflow fact.
        return analysis, None
    if not analysis.conclusive:
        return analysis, None
    if not analysis.batchable:
        return analysis, False
    return analysis, True if analysis.bounded else None
