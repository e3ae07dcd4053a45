"""Per-layer spans for the benchmark's traced run.

The traced run wraps the public entry points of each ``src/repro``
module from the benchmark's side: every wrapper is installed at the
name its caller resolves (a module attribute, a class attribute or a
registry entry) before any engine is built. A span records its name,
start, end, parent span and the ID of the instant it belongs to
(instant index and, on the server, the session being stepped). Spans
stay in memory and are written out when the episode ends.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because every workload is single-threaded.
The untraced runs use :class:`NullTracer`, whose hooks do nothing.

``trace.coverage`` is the share of the timed instants spent inside layer
spans: the instants' time minus the self time of the instant itself and
of the entry points that wrap whole steps (:data:`ENTRY_SPANS`), whose
self time is the code between the layer entry points.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict, deque
from time import perf_counter
from typing import Dict, List

#: BaseGraph operations of the scalar delayed-sampling graph.
DELAYED_OPS = ("assume_root", "assume_conditional", "graft", "marginalize",
               "realize", "value", "observe")
#: BatchedDSGraph methods, grouped under the op name they report as.
BATCHED_OPS = {
    "assume_root_dist": "assume", "assume_root": "assume",
    "assume_conditional": "assume", "observe": "observe", "value": "value",
    "marginalize": "marginalize", "realize": "realize", "batch_gather": "gather",
}
MIXTURE_ARRAYS = ("GaussianMixtureArray", "MvGaussianMixtureArray",
                  "BetaMixtureArray", "GammaMixtureArray", "CountMixtureArray",
                  "DirichletMixtureArray")
PHASES = ("model_eval", "weight_merge", "resample", "weight_commit")
#: spans whose self time no layer span attributes
ENTRY_SPANS = ("instant", "engine.step", "exec.tick")

_DELAYED = tuple("delayed." + op for op in DELAYED_OPS)
_BATCHED = tuple(sorted({"vgraph." + op for op in BATCHED_OPS.values()}))

#: per-instant self time (ms) summed over the named spans
SELF_MS = {
    "core.node_step_self_ms": ("core.node_step",),
    "inference.step_self_ms": ("engine.step",),
    "inference.normalize_ms": ("inference.normalize",),
    "inference.resampler_ms": ("inference.resampler",),
    "inference.clone_ms": ("inference.clone",),
    "delayed.graph_ms": _DELAYED,
    **{f"vectorized.graph.{op}_ms": ("vgraph." + op,)
       for op in ("assume", "observe", "value", "marginalize", "realize", "gather")},
    "vectorized.kernel_ms": ("kernel.*",),
    "vectorized.gather_ms": ("batch.gather",),
    "vectorized.lift_ms": ("vectorized.lift", "vectorized.mixture", "vectorized.lift_beta"),
    "vectorized.lift_beta_ms": ("vectorized.lift_beta",),
    "vectorized.query_ms": ("vectorized.query",),
    "dists.query_ms": ("dists.query",),
    "exec.server_self_ms": ("exec.tick",),
    "exec.population_build_ms": ("exec.population_build",),
}
#: per-instant total duration (ms) of the named spans
TOTAL_MS = {"exec.tick_ms": ("exec.tick",)}
#: per-instant number of the named spans
COUNTS = {
    "core.node_steps": ("core.node_step",),
    "inference.resamples": ("inference.resampler",),
    "delayed.graph_ops": _DELAYED,
    "vectorized.graph_ops": _BATCHED,
}
#: set-up spans, per episode: (metric, span names, what to sum)
SETUP = (
    ("frontend.parse_ms", ("frontend.parse",), "total"),
    ("core.load_ms", ("core.load",), "total"),
    ("analysis.consult_ms", ("analysis.consult",), "total"),
    ("analysis.cold_verdicts", ("analysis.cold",), "count"),
    ("analysis.cold_ms", ("analysis.cold",), "total"),
    ("inference.infer_self_ms", ("inference.infer",), "self"),
    ("inference.init_ms", ("engine.init",), "total"),
)
#: per-call values recorded by probes, averaged over the timed window
PROBES = {
    "inference.ess_frac": "ess",
    "vectorized.gather_bytes": "gather_bytes",
    "exec.session_wait_ms": "wait",
}
#: every per-layer metric an episode reports, with its unit
LAYER_UNITS = {
    **{name: "count" if name in COUNTS else "ms"
       for name in (*SELF_MS, *TOTAL_MS, *COUNTS)},
    **{name: "count" if how == "count" else "ms" for name, _, how in SETUP},
    **{f"inference.phase.{phase}_ms": "ms" for phase in PHASES},
    "inference.ess_frac": "ratio",
    "inference.nan_weights": "count",
    "vectorized.gather_bytes": "bytes",
    "exec.session_wait_ms": "ms",
    "vectorized.slot_realizations": "count",
    "vectorized.scalar_fallbacks": "count",
    "exec.retained_outputs": "count",
    "exec.evictions": "count",
    "exec.retries": "count",
}


def registry_totals() -> Dict[str, float]:
    """Phase-histogram sums and event-counter totals of the registry."""
    from repro.obs import default_registry

    totals: Dict[str, float] = defaultdict(float)
    for metric in default_registry().metrics():
        if metric.name == "repro_step_phase_ms":
            totals["phase." + dict(metric.labels)["phase"]] += metric.sum
        elif metric.kind == "counter":
            totals[metric.name] += metric.value
    return totals


class NullTracer:
    """The untraced run: hooks that only do the work itself."""

    def instant(self, index):
        return contextlib.nullcontext()

    def span(self, name):
        return contextlib.nullcontext()

    def query(self, dist):
        return dist.mean()

    def note_submit(self, session_id):
        pass


class Tracer(NullTracer):
    """Records spans around calls into ``repro`` modules."""

    def __init__(self):
        #: one record per span: [name, start, end, parent index, context]
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: (instant index or "setup", session id or None)
        self.context = ("setup", None)
        self.on = True
        self.values: Dict[str, list] = defaultdict(list)
        self._submits: Dict[str, deque] = defaultdict(deque)

    # -- recording -----------------------------------------------------
    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent, self.context]
        self.spans.append(record)
        self._stack.append(index)
        return record

    def _close(self, record):
        self._stack.pop()
        record[2] = perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    @contextlib.contextmanager
    def instant(self, index):
        self.context = (index, None)
        try:
            with self.span("instant"):
                yield
        finally:
            self.context = ("after", None)

    def query(self, dist):
        layer = "vectorized" if type(dist).__module__.startswith("repro.vectorized") else "dists"
        with self.span(layer + ".query"):
            return dist.mean()

    def note_submit(self, session_id):
        self._submits[session_id].append(perf_counter())

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            record = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(record)

        return traced

    # -- installation --------------------------------------------------
    def everywhere(self, fn, name, wrapper=None):
        """Replace ``fn`` at every ``repro`` module attribute bound to it."""
        wrapper = wrapper or self.wrap(name, fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
        return wrapper

    def method(self, cls, attr, name):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, self.wrap(name, raw))

    def install(self):
        """Wrap every layer entry point; call before any engine is built."""
        # repro.bench.models is left to the workload's build: importing
        # it registers the bench models, which runs the static analysis.
        import repro  # noqa: F401
        from repro.analysis import routing
        from repro.core.compiled import CompiledProbNode
        from repro.delayed.graph import BaseGraph
        from repro.exec.population import ShardedPopulation
        from repro.exec.server import StreamServer, StreamSession
        from repro.inference import engine as scalar_engine
        from repro.inference import particles, resampling
        from repro.obs import enable_telemetry
        from repro.vectorized import batch, kernels, sds_graph
        from repro.vectorized import dists as vdists
        from repro.vectorized import engine as vengine

        enable_telemetry()
        infer_module = sys.modules["repro.inference.infer"]
        self.everywhere(infer_module.infer, "inference.infer")
        self.everywhere(routing.consult_for_backend, "analysis.consult")
        self.everywhere(routing.analyze_model, "analysis.cold")
        for cls in (scalar_engine.InferenceEngine, vengine.VectorizedEngine):
            self.method(cls, "init", "engine.init")
            self.method(cls, "step", "engine.step")
        self.method(vengine.VectorizedGaussianChainSDS, "step", "engine.step")
        self.everywhere(resampling.normalize_log_weights, "inference.normalize")
        for key, fn in list(resampling.RESAMPLERS.items()):
            resampling.RESAMPLERS[key] = self.wrap("inference.resampler", fn)
        self.everywhere(particles.clone_particle, "inference.clone")
        self._probe_ess(scalar_engine)
        for op in DELAYED_OPS:
            self.method(BaseGraph, op, "delayed." + op)
        for attr, op in BATCHED_OPS.items():
            self.method(sds_graph.BatchedDSGraph, attr, "vgraph." + op)
        for fname in kernels.__all__:
            fn = getattr(kernels, fname)
            if callable(fn) and not isinstance(fn, type):
                self.everywhere(fn, "kernel." + fname)
        self._probe_gather(batch)
        self.everywhere(sds_graph.lift_output, "vectorized.lift")
        for cls_name in MIXTURE_ARRAYS:
            beta = cls_name == "BetaMixtureArray"
            span = "vectorized.lift_beta" if beta else "vectorized.mixture"
            self.method(getattr(vdists, cls_name), "__init__", span)
        self.method(CompiledProbNode, "step", "core.node_step")
        self.method(StreamServer, "tick", "exec.tick")
        self.method(ShardedPopulation, "build", "exec.population_build")
        self._probe_sessions(StreamSession)

    def _probe_ess(self, scalar_engine):
        ess, tracer = scalar_engine.ess, self

        def probed(weights):
            value = ess(weights)
            if tracer.on:
                tracer.values["ess"].append((tracer.context, value / len(weights)))
            return value

        scalar_engine.ess = probed

    def _probe_gather(self, batch):
        traced, tracer = self.wrap("batch.gather", batch.gather), self
        words = batch.batch_state_words

        def probed(state, indices):
            out = traced(state, indices)
            if tracer.on:
                tracer.values["gather_bytes"].append((tracer.context, 8 * words(out)))
            return out

        self.everywhere(batch.gather, "batch.gather", probed)

    def _probe_sessions(self, session_cls):
        """Session context and submit-to-step wait of each server step."""
        step_once, tracer = session_cls.step_once, self

        def probed(session):
            if not tracer.on:
                return step_once(session)
            queue = tracer._submits.get(session.session_id)
            instant = tracer.context[0]
            if queue:
                wait_ms = (perf_counter() - queue.popleft()) * 1e3
                tracer.values["wait"].append(((instant, None), wait_ms))
            outer = tracer.context
            tracer.context = (instant, session.session_id)
            try:
                return step_once(session)
            finally:
                tracer.context = outer

        session_cls.step_once = probed

    # -- aggregation ---------------------------------------------------
    def layer_metrics(self, timed, registry_delta, registry_end, extra):
        """Per-layer metrics of the timed instants (a ``range``)."""
        n = max(len(timed), 1)
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms, total_ms, count = defaultdict(float), defaultdict(float), defaultdict(int)
        setup_self, setup_total = defaultdict(float), defaultdict(float)
        setup_count = defaultdict(int)
        root_ms = unattributed_ms = 0.0
        for i, (name, start, end, parent, context) in enumerate(spans):
            duration = (end - start) * 1e3
            own = duration - child[i] * 1e3
            key = "kernel.*" if name.startswith("kernel.") else name
            where = context[0]
            if where == "setup":
                setup_self[key] += own
                setup_total[key] += duration
                setup_count[key] += 1
            elif where in timed:
                self_ms[key] += own
                total_ms[key] += duration
                count[key] += 1
                if name == "instant":
                    root_ms += duration
                if name in ENTRY_SPANS:
                    unattributed_ms += own
        out = {}
        for metric, names in SELF_MS.items():
            out[metric] = sum(self_ms[k] for k in names) / n
        for metric, names in TOTAL_MS.items():
            out[metric] = sum(total_ms[k] for k in names) / n
        for metric, names in COUNTS.items():
            out[metric] = sum(count[k] for k in names) / n
        sources = {"self": setup_self, "total": setup_total, "count": setup_count}
        for metric, names, how in SETUP:
            out[metric] = sum(sources[how][k] for k in names)
        for metric, key in PROBES.items():
            values = [v for (where, _), v in self.values[key] if where in timed]
            out[metric] = sum(values) / len(values) if values else 0.0
        for phase in PHASES:
            out[f"inference.phase.{phase}_ms"] = registry_delta.get("phase." + phase, 0.0) / n
        out["vectorized.slot_realizations"] = (
            registry_delta.get("repro_slot_realizations_total", 0.0) / n)
        out["inference.nan_weights"] = registry_end.get("repro_nan_log_weights_total", 0.0)
        out["vectorized.scalar_fallbacks"] = registry_end.get("repro_scalar_fallback_total", 0.0)
        out.update(extra)
        if set(out) != set(LAYER_UNITS):
            raise KeyError(f"layer metrics out of sync: {set(out) ^ set(LAYER_UNITS)}")
        coverage = 1.0 - unattributed_ms / root_ms if root_ms else 0.0
        return out, coverage

    def write(self, path, workload):
        """Write the spans, one JSON object per line, with instant IDs."""
        with open(path, "w") as fh:
            for name, start, end, parent, (instant, session) in self.spans:
                span_id = f"{workload}/{session or '-'}/{instant}"
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
