"""Vectorized inference engines.

These engines implement the same streaming contract as the scalar
engines of :mod:`repro.inference.engine` — ``init`` / ``step`` over an
externalized state, output a posterior :class:`~repro.dists.Distribution`
per synchronous instant — but their state is one
:class:`~repro.vectorized.batch.ParticleBatch` instead of a list of
:class:`~repro.inference.particles.Particle` objects, and one ``step``
is a constant number of array operations regardless of the particle
count:

* :class:`VectorizedParticleFilter` — the bootstrap particle filter of
  Section 5.1 over a :class:`~repro.vectorized.models.VectorizedModel`;
  statistically equivalent to :class:`~repro.inference.engine.ParticleFilter`
  (same laws, different draw order).
* :class:`VectorizedKalmanSDS` — the streaming-delayed-sampling
  semantics (Section 5.3) for the paper's conjugate Gaussian chains
  (Kalman / Fig. 2 HMM): every particle's marginal is maintained as a
  closed-form mean/variance pair, so the engine performs batched Kalman
  predict/update arithmetic with Rao-Blackwellized weights and no
  per-particle graph objects.
* :class:`VectorizedBetaBernoulliSDS` — the same idea for the Coin
  model's Beta-Bernoulli chain: per-particle ``(alpha, beta)`` vectors,
  conjugate updates, exact predictive weights.
* :class:`VectorizedGaussianChainSDS` — delayed sampling (sds and bds)
  over the generic batched graph of :mod:`repro.vectorized.sds_graph`,
  for every model the analysis admits to the batched fragment.

All subclass :class:`~repro.inference.engine.InferenceEngine`, reusing
its configuration surface (``resampler``, ``resample_threshold``,
``clone_on_resample``, ``executor``, ``n_shards``, diagnostics) —
``clone_on_resample`` is accepted for interface compatibility but has
no observable effect here, because the array gather of resampling
always materializes fresh storage for every survivor. Like the scalar
engines, one step runs through the :mod:`repro.exec` plan: in sharded
mode the batch is partitioned into contiguous
:class:`~repro.vectorized.batch.ParticleBatch` slices, one per shard,
each advanced with its own RNG substream.
"""

from __future__ import annotations

import warnings
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from repro.dists import Bernoulli, Categorical, Distribution
from repro.errors import InferenceError
from repro.exec.population import (
    ExchangePlan,
    ResidentPopulation,
    ShardResult,
    ShardedPopulation,
    map_step,
    shard_sizes,
    spawn_shard_rngs,
)
from repro.exec.shm import materialize
from repro.inference.engine import InferenceEngine
from repro.inference.resampling import committed_log_weights, normalize_log_weights
from repro.obs.registry import count_event
from repro.obs.spans import TELEMETRY
from repro.runtime.node import ProbNode
from repro.symbolic import map_leaves
from repro.vectorized.batch import (
    ParticleBatch,
    concat_states,
    gather,
    slice_state,
    state_rows,
)
from repro.vectorized.dists import (
    ArrayEmpirical,
    BetaMixtureArray,
    CountMixtureArray,
    DirichletMixtureArray,
    GammaMixtureArray,
    GaussianMixtureArray,
    MvGaussianMixtureArray,
)
from repro.vectorized.kernels import (
    beta_bernoulli_log_prob,
    beta_bernoulli_update,
    gaussian_log_prob,
)
from repro.vectorized.models import CLOSED_FORM_SDS, DS_GRAPH_MODELS, vectorize_model
from repro.vectorized.sds_graph import (
    BatchedDelayedCtx,
    BatchedDSGraph,
    ChainOuts,
    ChainState,
    ChainStructureError,
    delta_rows,
    has_particle_rows,
    lift_output,
    wrap_batch_state,
)

__all__ = [
    "VectorizedEngine",
    "VectorizedParticleFilter",
    "VectorizedKalmanSDS",
    "VectorizedGaussianChainSDS",
    "VectorizedBetaBernoulliSDS",
    "ScalarFallbackState",
    "make_vectorized_engine",
]


def _merge(pieces: List[Any]) -> Any:
    """Per-shard array pytrees as one population-sized pytree.

    Several shards are concatenated into fresh arrays. One shard's
    pytree is returned as it is, without a copy, so the caller must not
    write to the result.
    """
    if len(pieces) == 1:
        return pieces[0]
    return concat_states(pieces)


def _per_particle(value: Any, shape: Tuple[int, ...]) -> np.ndarray:
    """``value`` as a float array of ``shape``: an array of that shape (an
    observing step's log-weights, a Gaussian output's variances) as it is,
    a shared scalar as a read-only broadcast view."""
    if isinstance(value, np.ndarray) and value.shape == shape:
        return value
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


class VectorizedEngine(InferenceEngine):
    """Base class for engines whose state is a :class:`ParticleBatch`.

    In sharded mode the engine state is a
    :class:`~repro.exec.population.ShardedPopulation` whose payloads are
    contiguous :class:`ParticleBatch` slices; the executor plan (map
    shards, merge weights, resample at the barrier) mirrors the scalar
    engines exactly, so ``executor=`` behaves identically on both
    substrates.
    """

    def init(self) -> Union[ParticleBatch, ShardedPopulation, ResidentPopulation]:
        if not self.sharded:
            return ParticleBatch(
                state=self._init_batch_state(self.n_particles, self.rng),
                log_weights=np.zeros(self.n_particles),
            )
        rngs = spawn_shard_rngs(self.n_shards, seed=self._seed, rng=self.rng)
        sizes = shard_sizes(self.n_particles, self.n_shards)
        chunks = [
            ParticleBatch(self._init_batch_state(size, rng), np.zeros(size))
            for size, rng in zip(sizes, rngs)
        ]
        population = ShardedPopulation.build(chunks, rngs)
        if self.executor.resident:
            return ResidentPopulation.create(self.executor, self, population.shards)
        return population

    def step(
        self, state: Union[ParticleBatch, ShardedPopulation], inp: Any
    ) -> Tuple[Distribution, Union[ParticleBatch, ShardedPopulation]]:
        if isinstance(state, ResidentPopulation):
            return self._step_resident(state, inp)
        sharded = isinstance(state, ShardedPopulation)
        if sharded:
            population = state
        else:
            population = ShardedPopulation.build([state], [self.rng])
        timer = TELEMETRY.step_timer()
        results, population = map_step(self.executor, self, population, inp)
        timer.mark("model_eval")
        outs = _merge([r.outs for r in results])
        step_logw = _merge([r.step_log_weights for r in results])
        prev_logw = _merge([r.prev_log_weights for r in results])
        log_weights = prev_logw + step_logw
        weights = normalize_log_weights(log_weights)
        self._record_stats(prev_logw, step_logw, weights)
        output = self._output_distribution(outs, weights)
        timer.mark("weight_merge")

        sizes = [r.payload.n for r in results]
        if self.resample and self._should_resample():
            # Barrier: global ancestor indices from the engine-level
            # generator, then re-scatter contiguous slices of the
            # survivors into the fixed shard partition.
            indices = np.asarray(
                self.resampler(weights, self.n_particles, self.rng)
            )
            merged = _merge([r.payload.state for r in results])
            gathered = gather(merged, indices)
            if len(sizes) == 1:
                # The gathered state is fresh and already the whole shard.
                chunks = [ParticleBatch(gathered, np.zeros(sizes[0]))]
            else:
                chunks, start = [], 0
                for size in sizes:
                    chunks.append(
                        ParticleBatch(
                            slice_state(gathered, start, start + size), np.zeros(size)
                        )
                    )
                    start += size
            timer.mark("resample")
        else:
            chunks, start = [], 0
            for result, size in zip(results, sizes):
                chunks.append(
                    self.shard_commit_weights(
                        result.payload, log_weights[start : start + size]
                    )
                )
                start += size
            timer.mark("weight_commit")
        timer.total("step")
        if not sharded:
            return output, chunks[0]
        return output, population.with_payloads(chunks)

    def step_shard(
        self, batch: ParticleBatch, rng: np.random.Generator, inp: Any
    ) -> ShardResult:
        """Map phase for one shard: advance its batch slice under ``rng``."""
        outs, new_state, step_logw = self._step_batch(batch.state, inp, batch.n, rng)
        return ShardResult(
            outs=outs,
            payload=ParticleBatch(new_state, batch.log_weights),
            step_log_weights=np.asarray(step_logw, dtype=float),
            prev_log_weights=batch.log_weights,
            rng=rng,
        )

    # ------------------------------------------------------------------
    # worker-resident execution (PersistentProcessExecutor)
    # ------------------------------------------------------------------
    def _merge_shard_outs(self, chunks: List[Any]) -> Any:
        # Multi-shard merges concatenate (fresh arrays); a single chunk
        # passes through _merge untouched, so zero-copy reply views must
        # be copied out here before they escape into the output
        # distribution — the ring region is reused next message.
        if len(chunks) == 1:
            return materialize(chunks[0])
        return _merge(chunks)

    def shard_export(self, batch: ParticleBatch, indices: Any) -> Any:
        """Worker-side: the state rows another shard needs at the barrier."""
        return gather(batch.state, np.asarray(indices, dtype=int))

    def shard_assemble(
        self, batch: ParticleBatch, plan: ExchangePlan, imports: Any
    ) -> ParticleBatch:
        """Worker-side: rebuild one shard slice from the exchange plan.

        Local survivors and imported row blocks are stacked into one
        combined state, then the plan becomes a single :func:`gather` —
        selecting exactly the rows the serial re-scatter would, so the
        fresh arrays are bit-identical to the materialized path.
        """
        sources = sorted(imports)
        offsets, total = {}, batch.n
        for source in sources:
            offsets[source] = total
            total += state_rows(imports[source])
        if sources:
            combined = concat_states([batch.state] + [imports[s] for s in sources])
        else:
            combined = batch.state
        indices = np.where(plan.kind == ExchangePlan.LOCAL, plan.a, 0)
        for source in sources:
            mask = (plan.kind == ExchangePlan.IMPORT) & (plan.a == source)
            indices[mask] = offsets[source] + plan.b[mask]
        return ParticleBatch(gather(combined, indices), np.zeros(len(plan)))

    def shard_commit_weights(
        self, batch: ParticleBatch, log_weights: np.ndarray
    ) -> ParticleBatch:
        """Fold the step's log-weights into the batch (NaN as -inf)."""
        return ParticleBatch(batch.state, committed_log_weights(log_weights))

    def memory_words(self, state: Union[ParticleBatch, ShardedPopulation]) -> int:
        if isinstance(state, ResidentPopulation):
            state = state.materialize()
        if isinstance(state, ShardedPopulation):
            return sum(batch.memory_words() for batch in state.payloads())
        return state.memory_words()

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def _init_batch_state(self, n: int, rng: np.random.Generator) -> Any:
        raise NotImplementedError

    def _step_batch(self, state: Any, inp: Any, n: int, rng: np.random.Generator):
        raise NotImplementedError


class VectorizedParticleFilter(VectorizedEngine):
    """Bootstrap particle filter advancing all particles per array step.

    ``model`` may be a :class:`VectorizedModel` or a scalar
    :class:`~repro.runtime.node.ProbNode` with a registered vectorized
    equivalent (see :func:`~repro.vectorized.models.vectorize_model`);
    anything else raises, and ``infer(..., backend=...)`` handles the
    fallback to the scalar engine.
    """

    def __init__(self, model: Any, **kwargs):
        batched = vectorize_model(model)
        if batched is None:
            raise InferenceError(
                f"model {type(model).__name__} has no vectorized equivalent; "
                "use the scalar ParticleFilter or register one with "
                "repro.vectorized.register_vectorizer"
            )
        super().__init__(model if isinstance(model, ProbNode) else batched, **kwargs)
        self.batched_model = batched

    def _init_batch_state(self, n: int, rng: np.random.Generator) -> Any:
        return self.batched_model.init_batch(n, rng)

    def _step_batch(self, state: Any, inp: Any, n: int, rng: np.random.Generator):
        return self.batched_model.step_batch(state, inp, n, rng)

    def _output_distribution(self, outs, weights) -> Distribution:
        return ArrayEmpirical(outs, weights)


class VectorizedKalmanSDS(VectorizedEngine):
    """Rao-Blackwellized SDS for the conjugate Gaussian chain, batched.

    Under SDS the Kalman/HMM models never sample: each particle's
    marginal over the position is the exact filtering posterior, and the
    particle weight is the marginal likelihood of the observation
    (Section 5.3). This engine stores those marginals as stacked
    ``(mean, variance)`` vectors and performs the predict / update /
    weight computations as whole-population array arithmetic — the SDS
    semantics with neither graph nodes nor per-particle clones.

    ``model`` must be a conjugate Gaussian chain: an object exposing
    ``prior_mean`` / ``prior_var`` / ``motion_var`` / ``obs_var`` whose
    transition is ``x_t ~ N(x_{t-1}, motion_var)`` observed through
    ``y_t ~ N(x_t, obs_var)`` (``KalmanModel`` and ``HmmModel``).
    """

    _PARAMS = ("prior_mean", "prior_var", "motion_var", "obs_var")

    def __init__(self, model: Any, **kwargs):
        if not all(hasattr(model, p) for p in self._PARAMS):
            raise InferenceError(
                f"model {type(model).__name__} is not a conjugate Gaussian "
                "chain; VectorizedKalmanSDS needs "
                "prior_mean/prior_var/motion_var/obs_var"
            )
        super().__init__(model, **kwargs)

    def _init_batch_state(self, n: int, rng: np.random.Generator) -> Any:
        return None  # (posterior means, posterior variances) after step 1

    def _step_batch(self, state: Any, yobs: Any, n: int, rng: np.random.Generator):
        if state is None:
            pred_mean = np.full(n, float(self.model.prior_mean))
            pred_var = np.full(n, float(self.model.prior_var))
        else:
            post_mean, post_var = state
            pred_mean = post_mean
            pred_var = post_var + self.model.motion_var
        yobs = float(yobs)
        # Rao-Blackwellized weight: the observation's marginal likelihood
        # under the predictive N(pred_mean, pred_var + obs_var).
        step_logw = gaussian_log_prob(yobs, pred_mean, pred_var + self.model.obs_var)
        gain = pred_var / (pred_var + self.model.obs_var)
        post_mean = pred_mean + gain * (yobs - pred_mean)
        post_var = (1.0 - gain) * pred_var
        return (post_mean, post_var), (post_mean, post_var), step_logw

    def _output_distribution(self, outs, weights) -> Distribution:
        post_mean, post_var = outs
        return GaussianMixtureArray(post_mean, post_var, weights)


class ScalarFallbackState:
    """Engine state after migration to a scalar delayed-sampling engine.

    Produced by :class:`VectorizedGaussianChainSDS` when the model
    leaves the batched fragment mid-stream: wraps the scalar engine's
    particle list so the engine's ``step`` knows to delegate. Opaque to
    callers, like every other engine state.
    """

    __slots__ = ("particles",)

    def __init__(self, particles: Any):
        self.particles = particles

    def __repr__(self) -> str:
        return f"ScalarFallbackState(n={len(self.particles)})"


class VectorizedGaussianChainSDS(VectorizedEngine):
    """Array-native delayed sampling over the generic batched DS graph.

    The tentpole of the vectorized subsystem: instead of one
    pointer-based delayed-sampling graph per particle, the engine runs
    the *scalar model code once per step* against a
    :class:`~repro.vectorized.sds_graph.BatchedDSGraph` holding every
    particle's delayed-sampling state as structure-of-arrays, so graft
    / marginalize / condition / realize are whole-population conjugacy
    kernels. Works for any model inside the batched fragment — scalar
    Kalman/HMM chains, multivariate (robot-tracker) chains, scalar
    projections of vector states, Beta-Bernoulli, Gamma-Poisson, and
    Dirichlet-Categorical slots, and tree-shaped combinations of these
    (the Outlier model's Beta→Bernoulli branch beside its Gaussian
    position chain) — as admitted by the static analysis
    (:func:`repro.analysis.analysis_for`) and the routing maps of
    :mod:`repro.vectorized.models`.

    ``mode`` selects the paper's two streaming delayed samplers:

    * ``"sds"`` (Section 5.3) — the graph persists across steps; the
      step output is the exact per-particle marginal
      (:class:`GaussianMixtureArray` / :class:`MvGaussianMixtureArray`
      / :class:`BetaMixtureArray` / :class:`GammaMixtureArray` /
      :class:`CountMixtureArray` / :class:`DirichletMixtureArray`).
    * ``"bds"`` (Section 5.2) — a fresh graph per step, every symbolic
      value force-realized at the end of the instant with one batched
      posterior draw; between steps the state is plain value arrays.

    Randomness is consumed in the same particle-major order as the
    scalar engines, so a ``bds`` run at a fixed seed reproduces the
    scalar ``bds`` draws on pure chains; all kernels are row-stable, so
    every executor and worker count reproduces the serial posterior bit
    for bit.

    **Mid-stream fallback (last resort).** A model that merely breaks
    conjugacy after it started (a transition that turns non-affine at
    step k, a Bernoulli of a Gaussian, …) does NOT leave the graph: the
    batched context realizes only the slots the offending expression
    references — one batched posterior draw each, counted in
    ``repro_slot_realizations_total{family}`` — and continues with
    every other slot symbolic. Scalar migration is reserved for steps
    the graph cannot express at all (an unsupported family, an unknown
    operator — the bounded ``reason`` tags on
    :class:`ChainStructureError`). Each SDS step runs against a cheap
    structural snapshot of the graph — mutations land on the snapshot,
    so a :class:`ChainStructureError` mid-step leaves the pre-step
    state intact — and ``step`` catches the error, realizes every
    symbolic state leaf with one batched posterior draw per variable,
    migrates the population to the corresponding scalar delayed sampler
    (one particle per row, weights preserved, serial execution), emits
    a one-time :class:`RuntimeWarning`, counts one
    ``repro_scalar_fallback_total{model,mode,reason}``, and finishes
    the stream there. Worker-resident populations
    (``processes-persistent:N``) do not support mid-stream migration —
    their step failures surface as executor errors — but the serial and
    thread executors do.
    """

    def __init__(self, model: Any, mode: str = "sds", **kwargs):
        if mode not in ("sds", "bds"):
            raise InferenceError(
                f"chain-SDS mode must be 'sds' or 'bds', got {mode!r}"
            )
        super().__init__(model, **kwargs)
        self.mode = mode
        #: scalar engine driving the population after fragment fallback.
        self._scalar_engine = None

    def _init_batch_state(self, n: int, rng: np.random.Generator) -> Any:
        return None

    def _step_batch(self, state: Any, inp: Any, n: int, rng: np.random.Generator):
        if state is None:
            graph = BatchedDSGraph(n)
            model_state = self.model.init()
        elif state.graph is None:
            # BDS: between steps the state is concrete value arrays;
            # wrap them so the model's lifted constructors stay symbolic.
            graph = BatchedDSGraph(n)
            model_state = wrap_batch_state(state.model_state, n)
        else:
            # SDS: run the step against a structural snapshot (array
            # views, fresh slot bookkeeping) so a mid-step fragment
            # error leaves the caller's pre-step state untouched — the
            # failure-atomicity the scalar-fallback migration needs.
            snapshot = state.batch_slice(0, state.n)
            graph = snapshot.graph
            model_state = snapshot.model_state
        graph.rng = rng
        ctx = BatchedDelayedCtx(graph)
        out, new_model_state = self.model.step(model_state, inp, ctx)
        if self.mode == "bds":
            # End of the instant: delay expires, every symbolic term is
            # realized (one batched draw per forced variable) and the
            # step's graph is dropped.
            outs = ChainOuts("delta", delta_rows(ctx.value(out), n))
            new_state = ChainState(None, ctx.value(new_model_state), n)
        else:
            outs = lift_output(graph, out, n)
            new_state = ChainState(graph, new_model_state, n)
            graph.sweep(new_state.slot_roots())
        step_logw = np.ascontiguousarray(_per_particle(ctx.log_weight, (n,)))
        return outs, new_state, step_logw

    def _output_distribution(self, outs: ChainOuts, weights) -> Distribution:
        if outs.kind == "gaussian":
            variances = _per_particle(outs.var, outs.mean.shape)
            return GaussianMixtureArray(outs.mean, variances, weights)
        if outs.kind == "mv_gaussian":
            return MvGaussianMixtureArray(outs.mean, outs.var, weights)
        if outs.kind == "beta":
            return BetaMixtureArray(outs.mean, outs.var, weights)
        if outs.kind == "bernoulli":
            # A weighted mixture of Bernoullis is itself a Bernoulli.
            return Bernoulli(float(np.dot(weights, outs.mean)))
        if outs.kind == "gamma":
            return GammaMixtureArray(outs.mean, outs.var, weights)
        if outs.kind == "poisson":
            return CountMixtureArray(outs.mean, outs.var, weights)
        if outs.kind == "dirichlet":
            return DirichletMixtureArray(outs.mean, weights)
        if outs.kind == "categorical":
            # A weighted mixture of Categoricals is itself Categorical.
            return Categorical(np.asarray(weights, dtype=float) @ outs.mean)
        return ArrayEmpirical(outs.mean, weights)

    # ------------------------------------------------------------------
    # mid-stream fallback to the scalar delayed samplers
    # ------------------------------------------------------------------
    def step(self, state: Any, inp: Any) -> Tuple[Distribution, Any]:
        if isinstance(state, ScalarFallbackState):
            dist, particles = self._scalar_engine.step(state.particles, inp)
            self.last_stats = self._scalar_engine.last_stats
            return dist, ScalarFallbackState(particles)
        try:
            return super().step(state, inp)
        except ChainStructureError as exc:
            particles = self._migrate_to_scalar(state, exc)
            # Replay the failed step on the migrated population.
            dist, particles = self._scalar_engine.step(particles, inp)
            self.last_stats = self._scalar_engine.last_stats
            return dist, ScalarFallbackState(particles)

    def memory_words(self, state: Any) -> int:
        if isinstance(state, ScalarFallbackState):
            return self._scalar_engine.memory_words(state.particles)
        return super().memory_words(state)

    def _build_scalar_engine(self):
        # Imported lazily: repro.inference.engine imports nothing from
        # this package, but keeping the dependency one-way at module
        # scope mirrors the rest of the backend.
        from repro.inference.engine import (
            BoundedDelayedSampler,
            StreamingDelayedSampler,
        )

        cls = StreamingDelayedSampler if self.mode == "sds" else BoundedDelayedSampler
        engine = cls(self.model, n_particles=self.n_particles, rng=self.rng)
        engine.resampler = self.resampler
        engine.resample_threshold = self.resample_threshold
        engine.clone_on_resample = self.clone_on_resample
        # Share the diagnostics log so one infer() call yields one
        # uninterrupted StepStats stream across the migration.
        engine.diagnostics = self.diagnostics
        return engine

    def _collect_population(self, state: Any):
        """Merge a materialized engine state into one (ChainState, logw)."""
        if isinstance(state, ShardedPopulation):
            payloads = state.payloads()
            chain_states = [batch.state for batch in payloads]
            log_weights = np.concatenate([batch.log_weights for batch in payloads])
            if chain_states[0] is None:
                return None, log_weights
            return chain_states[0].batch_concat(chain_states[1:]), log_weights
        return state.state, state.log_weights

    def _migrate_to_scalar(self, state: Any, exc: ChainStructureError):
        """Move the whole population onto the scalar delayed sampler.

        Symbolic state leaves are realized with one batched posterior
        draw per variable (exactly the BDS end-of-step rule, so the
        migration is an unbiased sample of the current posterior), then
        each particle receives its row of the realized arrays plus its
        accumulated log-weight. Emitted once per engine.
        """
        from repro.inference.particles import Particle

        count_event(
            "repro_scalar_fallback_total",
            labels={
                "model": type(self.model).__name__,
                "mode": self.mode,
                "reason": getattr(exc, "reason", "structure"),
            },
        )
        warnings.warn(
            f"model {type(self.model).__name__} left the batched "
            f"delayed-sampling fragment mid-stream ({exc}); migrating "
            f"{self.n_particles} particles to the scalar "
            f"{self.mode} engine (serial execution)",
            RuntimeWarning,
            stacklevel=3,
        )
        engine = self._build_scalar_engine()
        self._scalar_engine = engine
        chain_state, log_weights = self._collect_population(state)
        if chain_state is None:
            # Failed on the very first step: nothing to migrate.
            return engine.init()
        model_state = chain_state.model_state
        if chain_state.graph is not None:
            graph = chain_state.graph
            graph.rng = self.rng
            model_state = BatchedDelayedCtx(graph).value(model_state)
        n = chain_state.n

        def row(leaf: Any, i: int) -> Any:
            if has_particle_rows(leaf, n):
                value = leaf[i]
                return value.item() if np.ndim(value) == 0 else np.array(value)
            return leaf

        particles = []
        for i in range(n):
            scalar_state = map_leaves(model_state, lambda leaf: row(leaf, i))
            graph_i = engine._fresh_graph() if engine.persistent_graph else None
            particles.append(Particle(scalar_state, graph_i, float(log_weights[i])))
        return particles


class VectorizedBetaBernoulliSDS(VectorizedEngine):
    """Exact SDS for the Beta-Bernoulli chain (Coin model), batched.

    Under SDS the Coin model's Beta prior is never sampled: every
    Bernoulli observation conditions it analytically, so each particle's
    marginal is ``Beta(alpha + heads, beta + tails)`` and the weight is
    the posterior-predictive mass of the observation. The whole
    population is two parameter vectors and the step is pure conjugate
    arithmetic — no randomness at all, matching the scalar SDS engine
    where a single particle is already exact.

    ``model`` must expose ``alpha`` / ``beta_param`` (``CoinModel``).
    """

    _PARAMS = ("alpha", "beta_param")

    def __init__(self, model: Any, **kwargs):
        if not all(hasattr(model, p) for p in self._PARAMS):
            raise InferenceError(
                f"model {type(model).__name__} is not a Beta-Bernoulli "
                "chain; VectorizedBetaBernoulliSDS needs alpha/beta_param"
            )
        super().__init__(model, **kwargs)

    def _init_batch_state(self, n: int, rng: np.random.Generator) -> Any:
        return (
            np.full(n, float(self.model.alpha)),
            np.full(n, float(self.model.beta_param)),
        )

    def _step_batch(self, state: Any, yobs: Any, n: int, rng: np.random.Generator):
        alpha, beta = state
        yobs = bool(yobs)
        step_logw = beta_bernoulli_log_prob(yobs, alpha, beta)
        alpha, beta = beta_bernoulli_update(yobs, alpha, beta)
        return (alpha, beta), (alpha, beta), step_logw

    def _output_distribution(self, outs, weights) -> Distribution:
        alpha, beta = outs
        return BetaMixtureArray(alpha, beta, weights)


def make_vectorized_engine(
    method_key: str, model: Any, backend: str = "vectorized", **kwargs
) -> Optional[VectorizedEngine]:
    """The vectorized engine for a ``(method, model)`` pair, or None.

    The one routing rule of ``infer(..., backend="vectorized" | "auto")``;
    None sends the caller to the scalar engine. It reads the three maps
    of :mod:`repro.vectorized.models`, in this order:

    1. ``pf``: the model's batched twin (``VECTORIZED_MODELS``, or the
       model itself when it is a ``VectorizedModel``) under
       :class:`VectorizedParticleFilter`;
    2. ``sds``: the closed-form engine ``CLOSED_FORM_SDS`` lists for the
       class (:class:`VectorizedKalmanSDS`,
       :class:`VectorizedBetaBernoulliSDS`);
    3. ``bds``/``sds``: :class:`VectorizedGaussianChainSDS` over the
       model, through its lockstep adapter, when ``DS_GRAPH_MODELS``
       lists the class or, under ``"auto"``, the static verdict is
       batchable and bounded.

    Under ``"auto"`` the verdict
    (:func:`repro.analysis.routing.consult_for_backend`) is taken first,
    for every method, and a conclusively unbatchable ``bds``/``sds``
    model gets None. Everything else (``"ds"``, ``"importance"``,
    unlisted models) gets None.
    """
    verdict = None
    if backend == "auto":
        # Imported lazily: repro.analysis imports the vectorized layer.
        from repro.analysis.routing import consult_for_backend

        _, verdict = consult_for_backend(model, method_key)
    if method_key in ("pf", "particle_filter"):
        batched = vectorize_model(model)
        if batched is None:
            return None
        return VectorizedParticleFilter(batched, **kwargs)
    if method_key not in ("sds", "bds") or verdict is False:
        return None
    cls = type(model)
    if method_key == "sds" and cls in CLOSED_FORM_SDS:
        return CLOSED_FORM_SDS[cls](model, **kwargs)
    if cls in DS_GRAPH_MODELS:
        adapter = DS_GRAPH_MODELS[cls]
        if adapter is not None:
            model = adapter(model)
    elif not verdict:
        return None
    return VectorizedGaussianChainSDS(model, mode=method_key, **kwargs)
