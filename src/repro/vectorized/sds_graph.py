"""Array-native delayed sampling: one batched graph for all particles.

The scalar delayed samplers (:mod:`repro.delayed`) run one pointer-based
graph *per particle*: every ``graft`` / ``marginalize`` / ``condition``
/ ``realize`` is a Python method call on a Python node object, so the
per-step cost of ``bds`` / ``sds`` is dominated by interpreter overhead
multiplied by the particle count — exactly the overhead the paper's
constant-latency claim is about. This module is the structure-of-arrays
counterpart of the paper's semi-symbolic runtime for the models whose
delayed-sampling execution is *lockstep-batchable*:

* :class:`BatchedDSGraph` holds the delayed-sampling state of **all N
  particles at once**. A graph *slot* is one random variable of the
  model; its lifecycle state lives in one ``int8`` entry of the
  slot-state array, its links in flat ``int32`` parent / marginal-child
  arrays, and its marginal parameters in stacked per-particle arrays.
  Which arrays, and which conjugacy arithmetic, is decided by a
  **per-slot family tag** dispatching into the ``FAMILY_KERNELS``
  table — the pluggable SoA kernel set of each conjugacy family:

  - ``"gaussian"`` — per-particle mean rows, a variance that is shared
    (a float) on pure chains and widens to a per-particle array when a
    realized indicator masks the update (the Outlier observation);
  - ``"mv_gaussian"`` — ``(n, d)`` mean rows with a shared ``(d, d)``
    covariance (the Gaussian-chain invariant: the covariance recursion
    of a linear-Gaussian chain never touches realized values);
  - ``"beta"`` — per-particle ``(alpha, beta)`` parameter rows;
  - ``"bernoulli"`` — per-particle predictive-probability rows;
  - ``"gamma"`` — per-particle ``(shape, rate)`` parameter rows;
  - ``"poisson"`` — per-particle rate rows, widening to the
    negative-binomial ``(shape, rate)`` compound when the rate is a
    symbolic Gamma parent (the Gamma-Poisson marginal);
  - ``"dirichlet"`` — per-particle ``(n, k)`` concentration rows;
  - ``"categorical"`` — per-particle ``(n, k)`` probability rows with
    scalar integer draws.

  Edges are the batched conjugacy relationships
  (:class:`ScalarAffineEdge` — whose coefficient and variance may be
  per-particle arrays, the masked-update trick —
  :class:`ProjectionEdge`, :class:`MvAffineEdge`,
  :class:`BetaBernoulliEdge`), and graft / marginalize / condition /
  realize are whole-population kernels with the *pointer-minimal
  streaming discipline* of Section 5.3 (forward pointers on
  marginalization, deferred conditioning of parents on realized
  children) ported verbatim from
  :class:`~repro.delayed.streaming.StreamingGraph`. Tree-shaped models
  — several variables alive at once, e.g. the Outlier model's
  Beta→Bernoulli branch beside its Gaussian position chain — are a
  forest of such slots; grafting across a branch prunes sibling
  marginalized sub-paths with whole-population posterior draws, exactly
  as the scalar graph does one particle at a time.

* :class:`BatchedDelayedCtx` gives unmodified scalar model code
  (:class:`~repro.runtime.node.ProbNode` ``step`` functions) the batched
  semantics: ``sample`` returns a symbolic :class:`~repro.symbolic.RVar`
  over a batched slot, ``observe`` conditions all particles with one
  kernel and returns the per-particle log-weight vector, ``value``
  realizes by one batched posterior draw.

**Lockstep invariant.** The model's Python code runs *once* per step for
the whole population, so every particle performs the same graph
operations in the same order — slot lifecycles are shared, only the
per-particle parameter rows and realized values differ. Forced
realization (``ctx.value``) is allowed: it yields per-particle value
*arrays*, which may feed back into distribution parameters (per-particle
means, masked affine coefficients) but never into Python control flow.
The static analysis (:mod:`repro.analysis`) admits exactly this class
ahead of time.

**The degradation ladder.** A non-conjugate or non-affine dependency
(``x * x`` as a mean, a Gamma rate feeding a Gaussian location, a
symbolic variance) no longer leaves the graph: the dependency-breaking
rule realizes *only the slots the offending expression references* —
one batched posterior draw each, counted in
``repro_slot_realizations_total{family}`` — folds the values into the
parameters, and continues with every other slot symbolic. Only
structure the graph cannot express at all (a family without kernels —
Uniform, InverseGamma, … — a parameter of the wrong shape, branching
Python control flow on a per-particle value array) raises
:class:`ChainStructureError`. ``infer`` never routes such models here
when the analysis / routing maps are used, and the graph engine
(:class:`~repro.vectorized.engine.VectorizedGaussianChainSDS`) catches
the error mid-stream as the last resort, migrates the population to
the scalar delayed samplers with a one-time :class:`RuntimeWarning`,
and finishes the stream there — degrading gracefully instead of
aborting inference.

Randomness is consumed in the same particle-major order as the scalar
engines (batched ``rng.normal`` / the replicated svd path of
:func:`~repro.vectorized.kernels.mv_gaussian_sample`), so a fixed-seed
run reproduces the scalar ``bds`` draws on pure chains, and all batched
kernels are row-stable (see
:func:`~repro.dists.mv_gaussian.batched_matvec`), so sharded execution
is bit-identical to serial for every executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.dists import (
    Bernoulli,
    Beta,
    Categorical,
    Dirichlet,
    Distribution,
    Gamma,
    Gaussian,
    MvGaussian,
    Poisson,
)
from repro.dists.mv_gaussian import (
    batched_matvec,
    batched_mv_log_pdf,
    batched_rowdot,
)
from repro.errors import GraphError
from repro.lang.lifted import SymDist
from repro.obs.registry import count_event
from repro.runtime.node import ProbCtx
from repro.symbolic import (
    App,
    BatchConst,
    RVar,
    SymExpr,
    extract_affine,
    is_symbolic,
    map_leaves,
    rebuild_tuple,
    zip_leaves,
)
from repro.vectorized.kernels import (
    bernoulli_log_prob,
    bernoulli_sample,
    beta_bernoulli_predictive,
    beta_bernoulli_update,
    beta_log_prob,
    categorical_row_log_prob,
    categorical_sample,
    dirichlet_log_prob,
    dirichlet_sample,
    gamma_log_prob,
    gamma_sample,
    gaussian_log_prob,
    mv_gaussian_sample,
    neg_binomial_log_prob,
    poisson_log_prob,
)

__all__ = [
    "ChainStructureError",
    "SlotFamily",
    "FAMILY_KERNELS",
    "register_slot_family",
    "BatchedNode",
    "BatchedDSGraph",
    "BatchedDelayedCtx",
    "ScalarAffineEdge",
    "ProjectionEdge",
    "MvAffineEdge",
    "BetaBernoulliEdge",
    "GammaPoissonEdge",
    "DirichletCategoricalEdge",
    "ChainOuts",
    "ChainState",
    "wrap_batch_state",
    "lift_output",
    "delta_rows",
    "FREE",
    "INITIALIZED",
    "MARGINALIZED",
    "REALIZED",
]

#: int8 slot-state codes of the node-state array.
FREE = np.int8(0)
INITIALIZED = np.int8(1)
MARGINALIZED = np.int8(2)
REALIZED = np.int8(3)


class ChainStructureError(GraphError):
    """The model stepped outside the batched delayed-sampling fragment.

    Since PR 8 this is the *last* rung of the degradation ladder:
    non-conjugate and non-affine dependencies are first handled in-graph
    by realizing only the offending slots (the dependency-breaking rule,
    see :meth:`BatchedDelayedCtx._realized_param`), so the error is
    raised only for structure the graph cannot express at all — a family
    without SoA kernels, a parameter of the wrong shape, an operator
    with no batched evaluation rule. ``infer`` never routes such models
    here when the analysis / routing maps are used, and the
    graph engine falls back to the scalar delayed samplers mid-stream
    (state migrated, one-time ``RuntimeWarning``) when a model leaves
    the fragment after it started.

    ``reason`` is a bounded category tag — ``"unsupported-family"``,
    ``"shape"``, ``"unsupported-op"``, or ``"structure"`` — surfaced as
    the ``reason`` label of the ``repro_scalar_fallback_total`` counter.
    """

    def __init__(self, message: str, reason: str = "structure"):
        super().__init__(message)
        self.reason = reason


# ----------------------------------------------------------------------
# per-family SoA kernels (the pluggable dispatch table)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SlotFamily:
    """SoA kernels and layout of one conjugacy family.

    A slot of this family stores two parameter entries, ``p0`` (the
    per-particle rows: Gaussian means, Beta alphas, Bernoulli
    probabilities) and ``p1`` (the scale: variance / covariance / Beta
    betas, or None for scale-free families). ``vector`` families stack
    rows as ``(n, d)``; scalar families as ``(n,)``.
    """

    name: str
    #: per-particle rows are (n, d) instead of (n,)
    vector: bool = False
    #: the family has a second (scale) parameter at all
    has_scale: bool = True
    #: the scale broadcasts to the particle axis (Beta betas); shared
    #: scales (Gaussian variances, covariances) stay scalar/(d, d)
    #: unless the model hands the graph a per-particle array.
    per_particle_scale: bool = False
    #: cast applied to shared realized values when broadcasting
    cast: Callable[[Any], Any] = float
    #: realized values stack as (n, d) rows; None inherits ``vector``.
    #: Categorical slots are the split case: (n, k) probability rows but
    #: scalar integer draws.
    value_vector: Optional[bool] = None
    #: (p0, p1, rng) -> per-particle draw rows
    sample: Optional[Callable] = None
    #: (p0, p1, value) -> per-particle log-densities
    log_pdf: Optional[Callable] = None

    @property
    def values_vector(self) -> bool:
        """Whether realized values of this family stack as (n, d) rows."""
        return self.vector if self.value_vector is None else self.value_vector


#: family tag -> SoA kernel set. Extend with :func:`register_slot_family`.
FAMILY_KERNELS = {}


def register_slot_family(family: SlotFamily) -> None:
    """Register (or replace) the SoA kernels of a conjugacy family."""
    FAMILY_KERNELS[family.name] = family


def _family(name: Optional[str]) -> SlotFamily:
    fam = FAMILY_KERNELS.get(name)
    if fam is None:
        raise ChainStructureError(
            f"family {name!r} has no batched slot kernels; supported: "
            f"{sorted(FAMILY_KERNELS)}",
            reason="unsupported-family",
        )
    return fam


register_slot_family(
    SlotFamily(
        name="gaussian",
        sample=lambda mean, var, rng: rng.normal(mean, np.sqrt(var)),
        log_pdf=lambda mean, var, value: gaussian_log_prob(value, mean, var),
    )
)
register_slot_family(
    SlotFamily(
        name="mv_gaussian",
        vector=True,
        sample=lambda mean, cov, rng: mv_gaussian_sample(mean, cov, rng),
        log_pdf=lambda mean, cov, value: batched_mv_log_pdf(value, mean, cov),
    )
)
register_slot_family(
    SlotFamily(
        name="beta",
        per_particle_scale=True,
        sample=lambda alpha, beta, rng: rng.beta(alpha, beta),
        log_pdf=lambda alpha, beta, value: beta_log_prob(value, alpha, beta),
    )
)
register_slot_family(
    SlotFamily(
        name="bernoulli",
        has_scale=False,
        cast=bool,
        sample=lambda p, _unused, rng: bernoulli_sample(p, rng),
        log_pdf=lambda p, _unused, value: bernoulli_log_prob(value, p),
    )
)


def _poisson_slot_sample(p0, p1, rng):
    # p1 is None for a pure Poisson slot (rate p0); otherwise the slot
    # holds the Gamma-Poisson marginal NB(r=p0, p=p1/(p1+1)), drawn
    # through its exact compound form.
    lam = p0 if p1 is None else gamma_sample(p0, p1, rng)
    return rng.poisson(np.asarray(lam, dtype=float))


def _poisson_slot_log_pdf(p0, p1, value):
    if p1 is None:
        return poisson_log_prob(value, p0)
    return neg_binomial_log_prob(value, p0, p1)


register_slot_family(
    SlotFamily(
        name="gamma",
        per_particle_scale=True,
        sample=lambda shape, rate, rng: gamma_sample(shape, rate, rng),
        log_pdf=lambda shape, rate, value: gamma_log_prob(value, shape, rate),
    )
)
register_slot_family(
    SlotFamily(
        name="poisson",
        has_scale=False,
        cast=int,
        sample=_poisson_slot_sample,
        log_pdf=_poisson_slot_log_pdf,
    )
)
register_slot_family(
    SlotFamily(
        name="dirichlet",
        vector=True,
        has_scale=False,
        sample=lambda alpha, _unused, rng: dirichlet_sample(alpha, rng),
        log_pdf=lambda alpha, _unused, value: dirichlet_log_prob(value, alpha),
    )
)
register_slot_family(
    SlotFamily(
        name="categorical",
        vector=True,
        value_vector=False,
        has_scale=False,
        cast=int,
        sample=lambda probs, _unused, rng: categorical_sample(probs, rng),
        log_pdf=lambda probs, _unused, value: categorical_row_log_prob(
            value, probs
        ),
    )
)


# ----------------------------------------------------------------------
# batched conjugacy edges (the conditional distributions of the graph)
# ----------------------------------------------------------------------
class ScalarAffineEdge:
    """``x | y ~ N(a*y + b, var)``, scalar Gaussian parent, batched.

    The batched counterpart of
    :class:`~repro.delayed.conjugacy.AffineGaussian`, with identical
    arithmetic (same operation order, same variance floor) so a batched
    chain reproduces the scalar graph's floats. ``a``, ``b``, and
    ``var`` may each be per-particle arrays — a masked observation
    (``a_i = 0`` where particle ``i`` distrusts the sensor) reduces the
    population update to exactly the masked Kalman blend the bespoke
    Outlier engine performed by hand.
    """

    __slots__ = ("a", "b", "var")
    parent_family = "gaussian"
    child_family = "gaussian"

    def __init__(self, a, b, var):
        self.a = a if isinstance(a, np.ndarray) else float(a)
        self.b = b if isinstance(b, np.ndarray) else float(b)
        # Scalar fast path first: pure chains construct one edge per
        # step per variable, and np.all on a float costs more than the
        # whole float comparison.
        if isinstance(var, np.ndarray):
            self.var = var
            if not np.all(var > 0.0):
                raise GraphError(f"conditional variance must be > 0, got {var!r}")
        else:
            self.var = float(var)
            if not self.var > 0.0:
                raise GraphError(f"conditional variance must be > 0, got {var!r}")

    def marginalize(self, mean, var):
        return self.a * mean + self.b, self.a * self.a * var + self.var

    def posterior(self, mean0, var0, value):
        innovation_var = self.a * self.a * var0 + self.var
        gain = var0 * self.a / innovation_var
        residual = value - (self.a * mean0 + self.b)
        post_mean = mean0 + gain * residual
        post_var = (1.0 - gain * self.a) * var0
        if isinstance(post_var, np.ndarray):
            post_var = np.maximum(post_var, 1e-300)
        else:
            post_var = max(post_var, 1e-300)
        return post_mean, post_var

    def at_value(self, parent_rows):
        return self.a * parent_rows + self.b, self.var


class ProjectionEdge:
    """Scalar ``x | y ~ N(row . y + b, var)``, MvGaussian parent, batched.

    The batched counterpart of
    :class:`~repro.delayed.conjugacy.GaussianProjection`: scalar sensor
    readings (accelerometer, GPS) of a vector chain state. The
    projection row and variance are shared across particles.
    """

    __slots__ = ("row", "b", "var")
    parent_family = "mv_gaussian"
    child_family = "gaussian"

    def __init__(self, row, b, var: float):
        self.row = np.asarray(row, dtype=float).reshape(-1)
        self.b = b if isinstance(b, np.ndarray) else float(b)
        if isinstance(var, np.ndarray) and var.ndim > 0:
            raise ChainStructureError(
                "per-particle variances are not supported on projection edges"
            )
        self.var = float(var)
        if not self.var > 0.0:
            raise GraphError(f"conditional variance must be > 0, got {var!r}")

    def marginalize(self, mean, cov):
        out_mean = batched_rowdot(self.row, mean) + self.b
        out_var = float(self.row @ cov @ self.row) + self.var
        return out_mean, out_var

    def posterior(self, mean0, cov0, value):
        innovation_var = float(self.row @ cov0 @ self.row) + self.var
        gain = (cov0 @ self.row) / innovation_var
        residual = value - (batched_rowdot(self.row, mean0) + self.b)
        post_mean = mean0 + residual[:, None] * gain
        post_cov = cov0 - np.outer(gain, self.row @ cov0)
        post_cov = 0.5 * (post_cov + post_cov.T)  # re-symmetrize
        return post_mean, post_cov

    def at_value(self, parent_rows):
        return batched_rowdot(self.row, parent_rows) + self.b, self.var


class MvAffineEdge:
    """``x | y ~ N(A @ y + b, cov)``, MvGaussian parent, batched.

    The batched counterpart of
    :class:`~repro.delayed.conjugacy.MvAffineGaussian`: the matrix
    Kalman relationship of the robot tracker's motion model.
    """

    __slots__ = ("a", "b", "cov")
    parent_family = "mv_gaussian"
    child_family = "mv_gaussian"

    def __init__(self, a, b, cov):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.cov = np.asarray(cov, dtype=float)
        if self.a.ndim != 2:
            raise GraphError("A must be a matrix")
        if self.cov.shape != (self.a.shape[0], self.a.shape[0]):
            raise GraphError("cov shape does not match A rows")

    def marginalize(self, mean, cov):
        out_mean = batched_matvec(self.a, mean) + self.b
        out_cov = self.a @ cov @ self.a.T + self.cov
        return out_mean, out_cov

    def posterior(self, mean0, cov0, value):
        innovation_cov = self.a @ cov0 @ self.a.T + self.cov
        gain = cov0 @ self.a.T @ np.linalg.pinv(innovation_cov)
        residual = np.asarray(value, dtype=float) - (
            batched_matvec(self.a, mean0) + self.b
        )
        post_mean = mean0 + batched_matvec(gain, residual)
        identity = np.eye(cov0.shape[0])
        post_cov = (identity - gain @ self.a) @ cov0
        post_cov = 0.5 * (post_cov + post_cov.T)  # re-symmetrize
        return post_mean, post_cov

    def at_value(self, parent_rows):
        return batched_matvec(self.a, parent_rows) + self.b, self.cov


class BetaBernoulliEdge:
    """``x | theta ~ Bernoulli(theta)``, Beta parent, batched.

    The batched counterpart of
    :class:`~repro.delayed.conjugacy.BetaBernoulli`: marginalization is
    the posterior-predictive probability ``alpha/(alpha+beta)`` per
    particle, conditioning the conjugate count update — including on
    per-particle realized indicator arrays, the Outlier model's forced
    Bernoulli.
    """

    __slots__ = ()
    parent_family = "beta"
    child_family = "bernoulli"

    def marginalize(self, alpha, beta):
        return beta_bernoulli_predictive(alpha, beta), None

    def posterior(self, alpha, beta, value):
        return beta_bernoulli_update(value, alpha, beta)

    def at_value(self, parent_rows):
        return np.asarray(parent_rows, dtype=float), None


class GammaPoissonEdge:
    """``k | lam ~ Poisson(lam)``, Gamma parent, batched.

    The batched counterpart of
    :class:`~repro.delayed.conjugacy.GammaPoisson`: marginalization is
    the negative-binomial compound ``NB(r=shape, p=rate/(rate+1))`` —
    stored on the child slot as the parent's ``(shape, rate)`` rows,
    which the "poisson" family kernels read directly — and conditioning
    is the conjugate count update ``(shape + k, rate + 1)``.
    """

    __slots__ = ()
    parent_family = "gamma"
    child_family = "poisson"

    def marginalize(self, shape, rate):
        return shape, rate

    def posterior(self, shape, rate, value):
        return shape + np.asarray(value, dtype=float), rate + 1.0

    def at_value(self, parent_rows):
        return np.asarray(parent_rows, dtype=float), None


class DirichletCategoricalEdge:
    """``z | theta ~ Categorical(theta)``, Dirichlet parent, batched.

    The batched counterpart of
    :class:`~repro.delayed.conjugacy.DirichletCategorical`:
    marginalization is the exact predictive ``Categorical(alpha /
    sum(alpha))`` per particle, conditioning adds one to the observed
    category's concentration — including for per-particle realized
    category arrays.
    """

    __slots__ = ()
    parent_family = "dirichlet"
    child_family = "categorical"

    def marginalize(self, alpha, _unused):
        alpha = np.asarray(alpha, dtype=float)
        return alpha / alpha.sum(axis=-1, keepdims=True), None

    def posterior(self, alpha, _unused, value):
        alpha = np.array(alpha, dtype=float)
        k = np.broadcast_to(np.asarray(value, dtype=int), alpha.shape[:-1])
        alpha[np.arange(alpha.shape[0]), k] += 1.0
        return alpha, None

    def at_value(self, parent_rows):
        return np.asarray(parent_rows, dtype=float), None


class BatchedNode:
    """Handle to one slot of a :class:`BatchedDSGraph`.

    This is what an :class:`~repro.symbolic.RVar` wraps under batched
    delayed sampling, so the existing symbolic machinery (affine
    extraction, expression evaluation) works unchanged; ``family`` and
    ``dim`` are the two attributes that machinery reads.
    """

    __slots__ = ("graph", "slot")

    def __init__(self, graph: "BatchedDSGraph", slot: int):
        self.graph = graph
        self.slot = int(slot)

    @property
    def family(self) -> str:
        return self.graph.family[self.slot]

    @property
    def dim(self) -> Optional[int]:
        return self.graph.slot_dim(self.slot)

    def __repr__(self) -> str:
        state = int(self.graph.node_state[self.slot])
        return f"BatchedNode(slot={self.slot}, state={state}, family={self.family})"


class BatchedDSGraph:
    """Streaming delayed-sampling state of all N particles, as arrays.

    Slot storage is structure-of-arrays: ``node_state`` (int8 lifecycle
    codes), ``parent`` / ``marginal_child`` (int32 slot links, -1 for
    none) are flat arrays over slots; ``mean`` holds one per-particle
    parameter array per slot (Gaussian means, Beta alphas, Bernoulli
    probabilities), ``var`` the slot's scale — a shared float /
    covariance on pure chains, a per-particle array for Beta betas and
    masked Gaussian updates — ``edge`` the conjugate conditional
    linking a slot to its parent, ``children`` the forward pointers of
    the streaming discipline, ``value_`` the realized values (a shared
    scalar / vector for observations, a per-particle array for sampled
    realizations). Which conjugacy arithmetic applies is the slot's
    ``family`` tag, dispatched through :data:`FAMILY_KERNELS`.

    Freed slots are recycled through a free list, so a steady-state
    model touches the same handful of slots forever — the batched
    version of the paper's constant-memory property (the per-slot sweep
    in :meth:`sweep` plays the role the garbage collector plays for the
    scalar pointer-minimal graph).
    """

    pointer_minimal = True

    def __init__(self, n: int, rng: Optional[np.random.Generator] = None):
        if n < 1:
            raise GraphError("need at least one particle")
        self.n = int(n)
        self.rng = rng
        capacity = 8
        self.node_state = np.zeros(capacity, dtype=np.int8)
        self.parent = np.full(capacity, -1, dtype=np.int32)
        self.marginal_child = np.full(capacity, -1, dtype=np.int32)
        self.folded = np.zeros(capacity, dtype=bool)
        self.family: List[Optional[str]] = [None] * capacity
        self.mean: List[Any] = [None] * capacity
        self.var: List[Any] = [None] * capacity
        self.value_: List[Any] = [None] * capacity
        self.edge: List[Any] = [None] * capacity
        self.children: List[List[int]] = [[] for _ in range(capacity)]
        self.name: List[str] = [""] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        # Statistics (exposed for tests and the evaluation harness).
        self.n_assumed = 0
        self.n_realized = 0
        self.n_marginalized = 0

    # -- slot management ------------------------------------------------
    @property
    def capacity(self) -> int:
        return int(self.node_state.size)

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        self.node_state = np.concatenate(
            [self.node_state, np.zeros(old, dtype=np.int8)]
        )
        self.parent = np.concatenate([self.parent, np.full(old, -1, np.int32)])
        self.marginal_child = np.concatenate(
            [self.marginal_child, np.full(old, -1, np.int32)]
        )
        self.folded = np.concatenate([self.folded, np.zeros(old, dtype=bool)])
        for lst, fill in (
            (self.family, None),
            (self.mean, None),
            (self.var, None),
            (self.value_, None),
            (self.edge, None),
            (self.name, ""),
        ):
            lst.extend([fill] * old)
        self.children.extend([] for _ in range(old))
        self._free.extend(range(new - 1, old - 1, -1))

    def _alloc(self, family: str, name: str = "") -> int:
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self.family[slot] = family
        self.name[slot] = name
        self.parent[slot] = -1
        self.marginal_child[slot] = -1
        self.folded[slot] = False
        self.children[slot] = []
        self.n_assumed += 1
        return slot

    def _release(self, slot: int) -> None:
        self.node_state[slot] = FREE
        self.parent[slot] = -1
        self.marginal_child[slot] = -1
        self.folded[slot] = False
        self.family[slot] = None
        self.mean[slot] = None
        self.var[slot] = None
        self.value_[slot] = None
        self.edge[slot] = None
        self.children[slot] = []
        self.name[slot] = ""
        self._free.append(slot)

    def live_slots(self) -> List[int]:
        """Slots currently holding a variable, in slot order."""
        return [int(s) for s in np.flatnonzero(self.node_state != FREE)]

    def slot_dim(self, slot: int) -> Optional[int]:
        """Dimension of a vector-valued slot (None for scalar values)."""
        if not _family(self.family[slot]).values_vector:
            return None
        mean = self.mean[slot]
        if isinstance(mean, np.ndarray) and mean.ndim == 2:
            return int(mean.shape[1])
        edge = self.edge[slot]
        if isinstance(edge, MvAffineEdge):
            return int(edge.a.shape[0])
        value = self.value_[slot]
        if isinstance(value, np.ndarray):
            return int(value.shape[-1])
        return None

    # -- broadcast helpers ----------------------------------------------
    def _mean_rows(self, const, family: str) -> np.ndarray:
        """Broadcast a (possibly shared) parameter to the particle axis."""
        arr = np.asarray(const, dtype=float)
        if not _family(family).vector:
            if arr.ndim == 0:
                return np.full(self.n, float(arr))
            if arr.shape == (self.n,):
                return arr
        else:
            if arr.ndim == 1:
                return np.tile(arr, (self.n, 1))
            if arr.ndim == 2 and arr.shape[0] == self.n:
                return arr
        raise ChainStructureError(
            f"cannot broadcast a parameter of shape {arr.shape} over "
            f"{self.n} particles",
            reason="shape",
        )

    def _scale_value(self, var, family: str) -> Any:
        """Coerce a slot's scale parameter to its storage form."""
        fam = _family(family)
        if not fam.has_scale:
            return None
        if fam.per_particle_scale:
            return self._mean_rows(var, family)
        if fam.vector:
            return np.asarray(var, dtype=float)
        if isinstance(var, np.ndarray) and var.ndim > 0:
            if var.shape != (self.n,):
                raise ChainStructureError(
                    f"per-particle variance must have shape ({self.n},), "
                    f"got {var.shape}",
                    reason="shape",
                )
            return np.asarray(var, dtype=float)
        return float(var)

    def _per_particle_scale(self, slot: int) -> bool:
        var = self.var[slot]
        return (
            isinstance(var, np.ndarray)
            and not _family(self.family[slot]).vector
            and var.ndim == 1
        )

    def _value_rows(self, slot: int) -> np.ndarray:
        """A realized slot's value, broadcast to the particle axis."""
        fam = _family(self.family[slot])
        value = self.value_[slot]
        if not fam.values_vector:
            if isinstance(value, np.ndarray) and value.ndim >= 1:
                return value
            return np.full(self.n, fam.cast(value))
        value = np.asarray(value, dtype=float)
        if value.ndim == 2:
            return value
        return np.tile(value, (self.n, 1))

    # ------------------------------------------------------------------
    # assume
    # ------------------------------------------------------------------
    def assume_root_dist(self, dist: Distribution, name: str = "") -> BatchedNode:
        """A parentless variable with a shared concrete marginal."""
        if isinstance(dist, Gaussian):
            return self.assume_root("gaussian", dist.mu, dist.var, name=name)
        if isinstance(dist, MvGaussian):
            return self.assume_root("mv_gaussian", dist.mu, dist.cov, name=name)
        if isinstance(dist, Beta):
            return self.assume_root("beta", dist.alpha, dist.beta, name=name)
        if isinstance(dist, Bernoulli):
            return self.assume_root("bernoulli", dist.p, None, name=name)
        if isinstance(dist, Gamma):
            return self.assume_root("gamma", dist.shape, dist.rate, name=name)
        if isinstance(dist, Poisson):
            return self.assume_root("poisson", dist.lam, None, name=name)
        if isinstance(dist, Dirichlet):
            return self.assume_root("dirichlet", dist.alpha, None, name=name)
        if isinstance(dist, Categorical):
            return self.assume_root("categorical", dist.probs, None, name=name)
        raise ChainStructureError(
            f"{type(dist).__name__} root has no batched slot family; "
            f"supported families: {sorted(FAMILY_KERNELS)}",
            reason="unsupported-family",
        )

    def assume_root(self, family: str, mean, var, name: str = "") -> BatchedNode:
        """A marginalized root: per-particle (or broadcast) parameter rows."""
        slot = self._alloc(family, name)
        self.mean[slot] = self._mean_rows(mean, family)
        self.var[slot] = self._scale_value(var, family)
        self.node_state[slot] = MARGINALIZED
        return BatchedNode(self, slot)

    def assume_conditional(
        self, edge: Any, parent: BatchedNode, name: str = ""
    ) -> BatchedNode:
        """A variable conditionally dependent on ``parent`` via ``edge``."""
        pslot = parent.slot
        if self.node_state[pslot] == REALIZED:
            mean, var = edge.at_value(self._value_rows(pslot))
            return self.assume_root(edge.child_family, mean, var, name=name)
        if self.family[pslot] != edge.parent_family:
            raise GraphError(
                f"conditional expects a {edge.parent_family} parent, "
                f"slot {pslot} has family {self.family[pslot]}"
            )
        slot = self._alloc(edge.child_family, name)
        self.parent[slot] = pslot
        self.edge[slot] = edge
        self.node_state[slot] = INITIALIZED
        return BatchedNode(self, slot)

    # ------------------------------------------------------------------
    # the M-path discipline (whole-population kernels)
    # ------------------------------------------------------------------
    def _live_marginal_child(self, slot: int) -> Optional[int]:
        child = int(self.marginal_child[slot])
        if child >= 0 and self.node_state[child] == MARGINALIZED:
            return child
        return None

    def graft(self, slot: int) -> None:
        """Make ``slot`` the terminal node of a marginalized path."""
        state = self.node_state[slot]
        if state == REALIZED:
            raise GraphError("cannot graft a realized node")
        if state == MARGINALIZED:
            child = self._live_marginal_child(slot)
            if child is not None:
                self.prune(child)
            self.marginal_child[slot] = -1
            return
        # Initialized: walk the backward chain iteratively, then
        # marginalize top-down (mirrors BaseGraph.graft). Grafting a
        # node in a tree whose anchored ancestor carries a different
        # marginalized branch prunes that branch with whole-population
        # posterior draws, exactly like the scalar graph.
        chain: List[int] = []
        cursor = slot
        while cursor >= 0 and self.node_state[cursor] == INITIALIZED:
            chain.append(cursor)
            cursor = int(self.parent[cursor])
        if cursor >= 0 and self.node_state[cursor] != REALIZED:
            self.graft(cursor)
        for link in reversed(chain):
            self.marginalize(link)

    def prune(self, slot: int) -> None:
        """Realize (by sampling) a whole marginalized sub-path below ``slot``."""
        if self.node_state[slot] != MARGINALIZED:
            raise GraphError("prune expects a marginalized node")
        chain: List[int] = [slot]
        cursor = self._live_marginal_child(slot)
        while cursor is not None:
            chain.append(cursor)
            cursor = self._live_marginal_child(cursor)
        for link in reversed(chain):
            mean, var = self.posterior_marginal(link)
            self.realize(link, self._sample(self.family[link], mean, var))

    def marginalize(self, slot: int) -> None:
        """Batched marginal of an initialized slot from its parent."""
        if self.node_state[slot] != INITIALIZED:
            raise GraphError("marginalize expects an initialized node")
        pslot = int(self.parent[slot])
        if pslot < 0:
            raise GraphError("initialized node has no parent")
        self.n_marginalized += 1
        if self.node_state[pslot] == REALIZED:
            # Parent realized while this node was initialized: the
            # conditional collapses and the node becomes a root.
            mean, var = self.edge[slot].at_value(self._value_rows(pslot))
            self.mean[slot] = self._mean_rows(mean, self.family[slot])
            self.var[slot] = self._scale_value(var, self.family[slot])
            self.node_state[slot] = MARGINALIZED
            self.parent[slot] = -1
            return
        if self.node_state[pslot] != MARGINALIZED:
            raise GraphError("parent of a marginalized node must be marginalized")
        live_child = self._live_marginal_child(pslot)
        if live_child is not None and live_child != slot:
            raise GraphError(
                "parent already has a marginalized child; graft should have pruned it"
            )
        pmean, pvar = self.posterior_marginal(pslot)
        mean, var = self.edge[slot].marginalize(pmean, pvar)
        self.mean[slot] = mean
        self.var[slot] = var
        self.node_state[slot] = MARGINALIZED
        self.marginal_child[pslot] = slot
        # Streaming pointer flip: forward pointer in, backward pointer out.
        self.children[pslot].append(slot)
        self.parent[slot] = -1

    def posterior_marginal(self, slot: int) -> Tuple[Any, Any]:
        """Marginal arrays of a marginalized slot, evidence folded in.

        Deferred conditioning, as in
        :meth:`~repro.delayed.streaming.StreamingGraph.posterior_marginal`:
        every realized, not-yet-folded child found through a forward
        pointer updates the marginal with one batched posterior kernel
        (a Kalman update, a Beta count update), after which the pointer
        is dropped. A tree parent may fold several realized children —
        one whole-population kernel each, in realization order.
        """
        if self.node_state[slot] != MARGINALIZED:
            raise GraphError("posterior_marginal expects a marginalized node")
        kids = self.children[slot]
        if kids:
            remaining: List[int] = []
            for child in kids:
                if self.node_state[child] == REALIZED and not self.folded[child]:
                    self.mean[slot], self.var[slot] = self.edge[child].posterior(
                        self.mean[slot], self.var[slot], self.value_[child]
                    )
                    self.folded[child] = True
                elif self.node_state[child] != REALIZED:
                    remaining.append(child)
            self.children[slot] = remaining
        return self.mean[slot], self.var[slot]

    def realize(self, slot: int, value: Any) -> None:
        """Assign per-particle (or shared) values to a marginalized slot."""
        if self.node_state[slot] != MARGINALIZED:
            raise GraphError("realize expects a marginalized node (graft first)")
        if self._live_marginal_child(slot) is not None:
            raise GraphError("cannot realize a node with a marginalized child")
        if self.parent[slot] >= 0:
            raise GraphError("streaming marginalized node still has a parent pointer")
        self.n_realized += 1
        self.value_[slot] = value
        self.node_state[slot] = REALIZED
        self.mean[slot] = None
        self.var[slot] = None
        self.marginal_child[slot] = -1
        # Forward pointers are dropped; initialized children keep their
        # backward pointer and collapse lazily in marginalize().
        self.children[slot] = []

    # ------------------------------------------------------------------
    # user-facing operations (Fig. 14's value / observe, batched)
    # ------------------------------------------------------------------
    def value(self, node: BatchedNode) -> np.ndarray:
        """Force per-particle values for ``node``, sampling if necessary."""
        slot = node.slot
        if self.node_state[slot] == REALIZED:
            return self._value_rows(slot)
        self.graft(slot)
        mean, var = self.posterior_marginal(slot)
        drawn = self._sample(self.family[slot], mean, var)
        self.realize(slot, drawn)
        return drawn

    def observe(self, node: BatchedNode, value: Any) -> np.ndarray:
        """Condition all particles on ``node == value``; per-particle scores.

        The score vector is the *marginal* (predictive) density of the
        observation under each particle's current marginal — the
        Rao-Blackwellized weight, as one array operation.
        """
        slot = node.slot
        if self.node_state[slot] == REALIZED:
            raise GraphError("cannot observe an already-realized node")
        self.graft(slot)
        mean, var = self.posterior_marginal(slot)
        log_weights = self._log_pdf(self.family[slot], mean, var, value)
        self.realize(slot, value)
        return log_weights

    def marginal_snapshot(self, node: BatchedNode) -> Tuple:
        """Current posterior marginal without realizing: ``(kind, ...)``.

        Returns ``("delta", rows)`` for realized slots,
        ``(family, p0, p1)`` otherwise; initialized chains are folded
        down from the nearest anchored ancestor without mutating the
        graph, mirroring :meth:`BaseGraph.marginal_snapshot`.
        """
        slot = node.slot
        state = self.node_state[slot]
        if state == REALIZED:
            return ("delta", self._value_rows(slot))
        if state == MARGINALIZED:
            mean, var = self.posterior_marginal(slot)
            return (self.family[slot], mean, var)
        chain: List[int] = []
        cursor = slot
        while cursor >= 0 and self.node_state[cursor] == INITIALIZED:
            chain.append(cursor)
            cursor = int(self.parent[cursor])
        if cursor < 0:
            raise GraphError("initialized node chain has no anchored ancestor")
        if self.node_state[cursor] == REALIZED:
            base: Optional[Tuple] = None
            base_rows = self._value_rows(cursor)
        else:
            mean, var = self.posterior_marginal(cursor)
            base = (self.family[cursor], mean, var)
            base_rows = None
        for link in reversed(chain):
            edge = self.edge[link]
            if base is None:
                mean, var = edge.at_value(base_rows)
            else:
                mean, var = edge.marginalize(base[1], base[2])
            base = (edge.child_family, self._mean_rows(mean, edge.child_family), var)
        return base

    # -- kernels --------------------------------------------------------
    def _sample(self, family: str, mean, var) -> np.ndarray:
        if self.rng is None:
            raise GraphError("graph has no generator bound for sampling")
        return _family(family).sample(mean, var, self.rng)

    def _log_pdf(self, family: str, mean, var, value) -> np.ndarray:
        return _family(family).log_pdf(mean, var, value)

    # ------------------------------------------------------------------
    # slot reclamation (the batched constant-memory property)
    # ------------------------------------------------------------------
    def sweep(self, roots: Iterable[int]) -> int:
        """Free every slot unreachable from ``roots`` via retained pointers.

        The scalar streaming graph gets this for free from Python's
        garbage collector: once the program drops its reference, nothing
        points backwards at an old node. Slot storage is owned by the
        graph, so reachability is made explicit — the same traversal as
        :func:`repro.delayed.graph.reachable_nodes`, over slot indices.
        Returns the number of slots freed.
        """
        marked = set()
        stack = [int(r) for r in roots if int(r) >= 0]
        while stack:
            slot = stack.pop()
            if slot in marked or self.node_state[slot] == FREE:
                continue
            marked.add(slot)
            for nxt in (int(self.parent[slot]), int(self.marginal_child[slot])):
                if nxt >= 0 and nxt not in marked:
                    stack.append(nxt)
            for nxt in self.children[slot]:
                if nxt not in marked:
                    stack.append(nxt)
        freed = 0
        for slot in self.live_slots():
            if slot not in marked:
                self._release(slot)
                freed += 1
        return freed

    # ------------------------------------------------------------------
    # row protocol (sharding / resampling transport)
    # ------------------------------------------------------------------
    def _clone_structure(self, n: int) -> "BatchedDSGraph":
        clone = object.__new__(type(self))
        clone.n = int(n)
        clone.rng = self.rng
        clone.node_state = self.node_state.copy()
        clone.parent = self.parent.copy()
        clone.marginal_child = self.marginal_child.copy()
        clone.folded = self.folded.copy()
        clone.family = list(self.family)
        clone.var = list(self.var)
        clone.edge = list(self.edge)
        clone.name = list(self.name)
        clone.children = [list(kids) for kids in self.children]
        clone._free = list(self._free)
        clone.n_assumed = self.n_assumed
        clone.n_realized = self.n_realized
        clone.n_marginalized = self.n_marginalized
        clone.mean = [None] * self.capacity
        clone.value_ = [None] * self.capacity
        return clone

    def _is_per_particle(self, slot: int, value: Any) -> bool:
        if not isinstance(value, np.ndarray):
            return False
        if not _family(self.family[slot]).values_vector:
            return value.ndim >= 1
        return value.ndim == 2

    def _map_rows(self, array_op, n: int) -> "BatchedDSGraph":
        clone = self._clone_structure(n)
        for slot in self.live_slots():
            mean = self.mean[slot]
            clone.mean[slot] = array_op(mean) if mean is not None else None
            if self._per_particle_scale(slot):
                clone.var[slot] = array_op(self.var[slot])
            value = self.value_[slot]
            if self._is_per_particle(slot, value):
                clone.value_[slot] = array_op(value)
            else:
                clone.value_[slot] = value
        return clone

    def batch_gather(self, indices: np.ndarray) -> "BatchedDSGraph":
        """Resample: per-particle arrays of every slot, indexed at once.

        The batched analogue of cloning selected particles' graphs —
        fresh arrays, so survivors never alias each other's storage.
        """
        indices = np.asarray(indices)
        return self._map_rows(lambda arr: arr[indices], int(indices.size))

    def batch_slice(self, start: int, stop: int) -> "BatchedDSGraph":
        """One contiguous particle range (a shard's view of the graph)."""
        return self._map_rows(lambda arr: arr[start:stop], stop - start)

    def batch_concat(
        self, tail: Iterable["BatchedDSGraph"]
    ) -> "BatchedDSGraph":
        """Merge per-shard graphs back into one population graph.

        Shards run the same model code in lockstep, so their slot
        structures are identical; only the per-particle arrays differ.
        """
        graphs = [self] + list(tail)
        for other in graphs[1:]:
            if not np.array_equal(other.node_state, self.node_state):
                raise GraphError(
                    "cannot concatenate batched graphs with different slot structure"
                )
        total = sum(g.n for g in graphs)
        clone = self._clone_structure(total)
        for slot in self.live_slots():
            if self.mean[slot] is not None:
                clone.mean[slot] = np.concatenate([g.mean[slot] for g in graphs])
            if self._per_particle_scale(slot):
                clone.var[slot] = np.concatenate([g.var[slot] for g in graphs])
            if self._is_per_particle(slot, self.value_[slot]):
                clone.value_[slot] = np.concatenate([g.value_[slot] for g in graphs])
            else:
                clone.value_[slot] = self.value_[slot]
        return clone

    def batch_rows(self) -> int:
        return self.n

    def batch_words(self) -> int:
        """Abstract heap words held live by the batched graph.

        The counterpart of :func:`repro.delayed.graph.graph_memory_words`
        summed over all particles' individual graphs: per-particle
        parameter and value arrays count per element, shared scales once.
        """
        words = 4 + self.capacity  # headers + the slot-state array
        for slot in self.live_slots():
            words += 8  # slot header (pointers, family, flags)
            mean = self.mean[slot]
            if mean is not None:
                words += int(mean.size)
            var = self.var[slot]
            if isinstance(var, np.ndarray):
                words += int(var.size)
            elif var is not None:
                words += 1
            value = self.value_[slot]
            if isinstance(value, np.ndarray):
                words += int(value.size)
            elif value is not None:
                words += 1
            if self.edge[slot] is not None:
                words += 4
        return words

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, "
            f"live_slots={len(self.live_slots())})"
        )


# ----------------------------------------------------------------------
# the probabilistic context over a batched graph
# ----------------------------------------------------------------------
class BatchedDelayedCtx(ProbCtx):
    """Delayed-sampling semantics for all particles at once.

    Handed to unmodified scalar model code: ``sample`` returns a
    symbolic reference over a batched slot, ``observe`` accumulates the
    per-particle log-weight *vector*, ``value`` realizes whole
    populations with one batched draw. Conjugacy detection mirrors
    :func:`repro.delayed.interface.assume` over the families with SoA
    kernels (Gaussian / MvGaussian affine edges, Beta-Bernoulli,
    Gamma-Poisson, Dirichlet-Categorical); non-conjugate dependencies
    are broken in-graph by realizing only the referenced slots
    (:meth:`_realized_param`), and only structure the graph cannot
    express raises :class:`ChainStructureError`, upon which the graph
    engine falls back to the scalar delayed samplers.
    """

    __slots__ = ("graph", "log_weight", "_counter")

    def __init__(self, graph: BatchedDSGraph):
        self.graph = graph
        self.log_weight: Any = 0.0
        self._counter = 0

    def _fresh_name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def sample(self, dist: Any) -> Any:
        return RVar(self._assume(dist, self._fresh_name("x")))

    def observe(self, dist: Any, value: Any) -> None:
        node = self._assume(dist, self._fresh_name("y"))
        concrete = self.value(value)
        self.log_weight = self.log_weight + self.graph.observe(node, concrete)

    def factor(self, log_score: Any) -> None:
        self.log_weight = self.log_weight + np.asarray(
            self.value(log_score), dtype=float
        )

    def value(self, expr: Any) -> Any:
        if not is_symbolic(expr):
            return expr
        return batched_eval(expr, self.graph)

    # -- conjugacy detection over the batched fragment -------------------
    def _count_realizations(self, expr: Any) -> None:
        """Count the not-yet-realized slots a dependency break will force."""
        stack = [expr]
        seen: set = set()
        while stack:
            e = stack.pop()
            if isinstance(e, RVar):
                node = e.node
                if (
                    isinstance(node, BatchedNode)
                    and node.graph is self.graph
                    and node.slot not in seen
                    and self.graph.node_state[node.slot] != REALIZED
                ):
                    seen.add(node.slot)
                    count_event(
                        "repro_slot_realizations_total",
                        labels={"family": node.family},
                    )
            elif isinstance(e, App):
                stack.extend(a for a in e.args if isinstance(a, SymExpr))

    def _realized_param(self, value: Any, what: str) -> Any:
        """A concrete (possibly per-particle) parameter.

        Symbolic parameters outside the conjugate fragment are handled
        by the in-graph dependency-breaking rule: realize *only* the
        slots the expression references (one batched posterior draw
        each, counted in ``repro_slot_realizations_total``), keep every
        other slot symbolic, and continue on the graph with per-particle
        concrete parameter rows. The batched counterpart of
        :func:`repro.delayed.interface._force_concrete`.
        """
        if isinstance(value, BatchConst):
            return value.values
        if not is_symbolic(value):
            return value
        self._count_realizations(value)
        return batched_eval(value, self.graph)

    def _assume(self, dist: Any, name: str) -> BatchedNode:
        graph = self.graph
        if isinstance(dist, Distribution):
            return graph.assume_root_dist(dist, name=name)
        if not isinstance(dist, SymDist):
            raise GraphError(
                f"assume expects a distribution, got {type(dist).__name__}"
            )
        kind = dist.kind
        if kind == "gaussian":
            mean, var = dist.params
            var = self._realized_param(var, "variance")
            if not isinstance(var, np.ndarray):
                var = float(var)
            form = extract_affine(mean)
            if form is None:
                # Non-affine mean (x * x, …): realize the referenced
                # slots only and continue as a root with per-particle
                # mean rows.
                mean = self._realized_param(mean, "mean")
                return graph.assume_root("gaussian", mean, var, name=name)
            if form.rv is None:
                return graph.assume_root("gaussian", form.const, var, name=name)
            parent = self._chain_parent(form.rv)
            coeff = form.coeff
            if parent.family == "gaussian" and np.ndim(coeff) == 0:
                edge = ScalarAffineEdge(float(coeff), form.const, var)
            elif parent.family == "gaussian" and np.ndim(coeff) == 1:
                # A per-particle coefficient row: the masked affine
                # observation of a forced indicator (Outlier). Zero
                # entries make the conditional ignore the chain for
                # those particles — the masked Kalman update.
                coeff = np.asarray(coeff, dtype=float)
                if coeff.shape != (graph.n,):
                    raise ChainStructureError(
                        "per-particle Gaussian coefficient must have one "
                        f"entry per particle, got shape {coeff.shape}",
                        reason="shape",
                    )
                edge = ScalarAffineEdge(coeff, form.const, var)
            elif parent.family == "mv_gaussian" and np.ndim(coeff) == 1:
                edge = ProjectionEdge(coeff, form.const, var)
            else:
                # Affine in a non-Gaussian variable (a Gamma rate used
                # as a location, say): no conjugate edge — break the
                # dependency and continue.
                mean = self._realized_param(mean, "mean")
                return graph.assume_root("gaussian", mean, var, name=name)
            return graph.assume_conditional(edge, parent, name=name)
        if kind == "mv_gaussian":
            mean, cov = dist.params
            cov = self._realized_param(cov, "covariance")
            form = extract_affine(mean)
            if form is not None and form.rv is None:
                return graph.assume_root("mv_gaussian", form.const, cov, name=name)
            if form is not None:
                parent = self._chain_parent(form.rv)
                if parent.family == "mv_gaussian" and np.ndim(form.coeff) == 2:
                    edge = MvAffineEdge(form.coeff, form.const, cov)
                    return graph.assume_conditional(edge, parent, name=name)
            mean = self._realized_param(mean, "mean")
            return graph.assume_root("mv_gaussian", mean, cov, name=name)
        if kind == "beta":
            alpha, b = dist.params
            alpha = self._realized_param(alpha, "Beta parameter")
            b = self._realized_param(b, "Beta parameter")
            return graph.assume_root("beta", alpha, b, name=name)
        if kind == "bernoulli":
            (p,) = dist.params
            if isinstance(p, RVar):
                parent = self._chain_parent(p.node)
                if parent.family == "beta":
                    return graph.assume_conditional(
                        BetaBernoulliEdge(), parent, name=name
                    )
            p = self._realized_param(p, "Bernoulli probability")
            return graph.assume_root("bernoulli", p, None, name=name)
        if kind == "gamma":
            shape, rate = dist.params
            shape = self._realized_param(shape, "Gamma shape")
            rate = self._realized_param(rate, "Gamma rate")
            return graph.assume_root("gamma", shape, rate, name=name)
        if kind == "poisson":
            (lam,) = dist.params
            if isinstance(lam, RVar):
                parent = self._chain_parent(lam.node)
                if parent.family == "gamma":
                    return graph.assume_conditional(
                        GammaPoissonEdge(), parent, name=name
                    )
            lam = self._realized_param(lam, "Poisson rate")
            return graph.assume_root("poisson", lam, None, name=name)
        if kind == "dirichlet":
            (alpha,) = dist.params
            alpha = self._realized_param(alpha, "Dirichlet concentration")
            return graph.assume_root("dirichlet", alpha, None, name=name)
        if kind == "categorical":
            (probs,) = dist.params
            if isinstance(probs, RVar):
                parent = self._chain_parent(probs.node)
                if parent.family == "dirichlet":
                    return graph.assume_conditional(
                        DirichletCategoricalEdge(), parent, name=name
                    )
            probs = self._realized_param(probs, "Categorical probabilities")
            return graph.assume_root("categorical", probs, None, name=name)
        raise ChainStructureError(
            f"distribution family {kind!r} is outside the batched "
            "delayed-sampling fragment",
            reason="unsupported-family",
        )

    def _chain_parent(self, node: Any) -> BatchedNode:
        if not isinstance(node, BatchedNode) or node.graph is not self.graph:
            raise ChainStructureError(
                "expression references a variable from another graph"
            )
        return node


def batched_eval(expr: Any, graph: BatchedDSGraph) -> Any:
    """Evaluate a symbolic tree over per-particle arrays.

    The batched counterpart of :func:`repro.symbolic.eval_expr`:
    variables realize to particle-major arrays, so the two structural
    operators change meaning — ``getitem`` extracts a *component*
    column (not a particle row) and ``matvec`` applies the matrix to
    every row with the row-stable kernel. Elementwise arithmetic
    broadcasts unchanged.
    """
    if isinstance(expr, RVar):
        return graph.value(expr.node)
    if isinstance(expr, BatchConst):
        return expr.values
    if isinstance(expr, App):
        args = [batched_eval(a, graph) for a in expr.args]
        op = expr.op
        if op == "getitem":
            target, index = args
            target = np.asarray(target)
            if target.ndim == 2:
                return target[:, index]
            return target[index]
        if op == "matvec":
            matrix, vector = args
            vector = np.asarray(vector)
            if vector.ndim == 2:
                return batched_matvec(matrix, vector)
            return np.asarray(matrix) @ vector
        if op == "add":
            return args[0] + args[1]
        if op == "sub":
            return args[0] - args[1]
        if op == "mul":
            return args[0] * args[1]
        if op == "div":
            return args[0] / args[1]
        if op == "neg":
            return -args[0]
        raise ChainStructureError(
            f"operator {op!r} has no batched evaluation rule",
            reason="unsupported-op",
        )
    if isinstance(expr, tuple):
        return rebuild_tuple(expr, [batched_eval(v, graph) for v in expr])
    if isinstance(expr, list):
        return [batched_eval(v, graph) for v in expr]
    if isinstance(expr, dict):
        return {k: batched_eval(v, graph) for k, v in expr.items()}
    return expr


# ----------------------------------------------------------------------
# engine-facing state and output containers (row-protocol leaves)
# ----------------------------------------------------------------------
class ChainOuts:
    """Stacked per-particle step outputs of a graph engine.

    ``kind`` is a slot family tag — ``"gaussian"`` (mean rows + shared
    or per-particle variance), ``"mv_gaussian"`` (mean matrix + shared
    covariance), ``"beta"`` (alpha rows + beta rows), ``"bernoulli"``
    (probability rows), ``"gamma"`` (shape rows + rate rows),
    ``"poisson"`` (rate rows, or NB shape/rate rows), ``"dirichlet"`` /
    ``"categorical"`` (concentration / probability row matrices) — or
    ``"delta"`` (concrete value rows, the BDS case). Implements the row
    protocol so per-shard outputs merge
    through the ordinary engine plan; a per-particle ``var`` (Beta
    betas, masked Gaussian variances) rides the row operations along
    with ``mean``.
    """

    __slots__ = ("kind", "mean", "var")

    def __init__(self, kind: str, mean: np.ndarray, var: Any = None):
        self.kind = kind
        self.mean = np.asarray(mean)
        self.var = var

    def batch_rows(self) -> int:
        return int(self.mean.shape[0])

    def _per_particle_var(self) -> bool:
        return (
            isinstance(self.var, np.ndarray)
            and self.kind in ("gaussian", "beta", "bernoulli", "gamma", "poisson")
            and self.var.ndim == 1
        )

    def _map_var(self, array_op) -> Any:
        return array_op(self.var) if self._per_particle_var() else self.var

    def batch_gather(self, indices: np.ndarray) -> "ChainOuts":
        return ChainOuts(
            self.kind, self.mean[indices], self._map_var(lambda a: a[indices])
        )

    def batch_slice(self, start: int, stop: int) -> "ChainOuts":
        return ChainOuts(
            self.kind,
            self.mean[start:stop],
            self._map_var(lambda a: a[start:stop]),
        )

    def batch_concat(self, tail: Iterable["ChainOuts"]) -> "ChainOuts":
        outs = [self] + list(tail)
        if any(o.kind != self.kind for o in outs):
            raise GraphError("cannot concatenate chain outputs of different kinds")
        if self._per_particle_var():
            var = np.concatenate([o.var for o in outs])
        else:
            var = self.var
        return ChainOuts(self.kind, np.concatenate([o.mean for o in outs]), var)

    def batch_words(self) -> int:
        words = 2 + int(self.mean.size)
        if isinstance(self.var, np.ndarray):
            words += int(self.var.size)
        elif self.var is not None:
            words += 1
        return words

    def __repr__(self) -> str:
        return f"ChainOuts(kind={self.kind}, n={self.batch_rows()})"


# Register ChainOuts with the shared-memory transport: a resident chain
# engine's dominant reply payload is the output mean matrix inside this
# opaque object, which the structural walk of ShmRing.pack would
# otherwise ship fully pickled. Both sides of the pipe import this
# module (workers unpickle the engine), so the codec exists everywhere.
from repro.exec.shm import register_shm_leaf  # noqa: E402

register_shm_leaf(
    ChainOuts,
    lambda outs: (outs.kind, outs.mean, outs.var),
    lambda parts: ChainOuts(*parts),
)


def has_particle_rows(value: Any, n: int) -> bool:
    """Whether a state leaf holds one row per particle.

    The batched engines guess it from the shape: an array whose leading
    axis is the particle count ``n``. A shared array of that length is
    taken for per-particle rows too.
    """
    return isinstance(value, np.ndarray) and value.ndim >= 1 and value.shape[0] == n


def _remap_expr(expr: Any, graph: BatchedDSGraph) -> Any:
    """Re-point every RVar inside a symbolic expression at ``graph``."""
    if isinstance(expr, RVar):
        return RVar(BatchedNode(graph, expr.node.slot))
    if isinstance(expr, App):
        return App(expr.op, tuple(_remap_expr(a, graph) for a in expr.args))
    return expr


class ChainState:
    """One engine-state leaf: the batched graph plus the model state.

    ``model_state`` is the scalar model's state pytree whose leaves may
    be symbolic references into ``graph`` (SDS), per-particle arrays
    (BDS, after forced realization), or shared constants. Implements the
    row protocol, so resampling, sharding, and the worker-resident
    shard operations all go through the ordinary
    :mod:`repro.vectorized.batch` helpers.
    """

    __slots__ = ("graph", "model_state", "n")

    def __init__(
        self,
        graph: Optional[BatchedDSGraph],
        model_state: Any,
        n: int,
    ):
        self.graph = graph
        self.model_state = model_state
        self.n = int(n)

    def slot_roots(self) -> List[int]:
        """Graph slots referenced by the model state (the sweep roots)."""
        roots: List[int] = []

        def visit(leaf: Any) -> Any:
            if isinstance(leaf, SymExpr):
                stack = [leaf]
                while stack:
                    expr = stack.pop()
                    if isinstance(expr, RVar):
                        roots.append(expr.node.slot)
                    elif isinstance(expr, App):
                        stack.extend(
                            a for a in expr.args if isinstance(a, SymExpr)
                        )
            return leaf

        map_leaves(self.model_state, visit)
        return roots

    def _transform(self, new_graph, array_op, n_new: int) -> "ChainState":
        def leaf(value: Any) -> Any:
            if isinstance(value, SymExpr):
                if new_graph is None:
                    raise GraphError("symbolic state leaf without a graph")
                return _remap_expr(value, new_graph)
            if has_particle_rows(value, self.n):
                return array_op(value)
            return value

        return ChainState(new_graph, map_leaves(self.model_state, leaf), n_new)

    def batch_rows(self) -> int:
        return self.n

    def batch_gather(self, indices: np.ndarray) -> "ChainState":
        indices = np.asarray(indices)
        new_graph = (
            self.graph.batch_gather(indices) if self.graph is not None else None
        )
        return self._transform(new_graph, lambda a: a[indices], int(indices.size))

    def batch_slice(self, start: int, stop: int) -> "ChainState":
        new_graph = (
            self.graph.batch_slice(start, stop) if self.graph is not None else None
        )
        return self._transform(new_graph, lambda a: a[start:stop], stop - start)

    def batch_concat(self, tail: Iterable["ChainState"]) -> "ChainState":
        states = [self] + list(tail)
        total = sum(s.n for s in states)
        if self.graph is not None:
            new_graph = self.graph.batch_concat([s.graph for s in states[1:]])
        else:
            new_graph = None

        def leaf(values: List[Any]) -> Any:
            head = values[0]
            if isinstance(head, SymExpr):
                if new_graph is None:
                    raise GraphError("symbolic state leaf without a graph")
                return _remap_expr(head, new_graph)
            # Per-particle leaves concatenate; shared arrays (fixed
            # parameter vectors) pass through: the slice left them
            # intact, so the merge must too.
            if has_particle_rows(head, self.n):
                return np.concatenate(values)
            return head

        return ChainState(
            new_graph, zip_leaves([s.model_state for s in states], leaf), total
        )

    def batch_words(self) -> int:
        words = 2
        if self.graph is not None:
            words += self.graph.batch_words()

        def leaf(value: Any) -> Any:
            nonlocal words
            if isinstance(value, np.ndarray):
                words += 1 + int(value.size)
            elif value is not None and not isinstance(value, SymExpr):
                words += 1
            return value

        map_leaves(self.model_state, leaf)
        return words

    def __repr__(self) -> str:
        mode = "sds" if self.graph is not None else "bds"
        return f"ChainState(n={self.n}, mode={mode})"


def wrap_batch_state(model_state: Any, n: int) -> Any:
    """Wrap per-particle array leaves as :class:`BatchConst` expressions.

    The BDS engine stores forced realizations as plain arrays between
    steps; wrapping them before the next ``model.step`` lets scalar
    model code (``gaussian(state, v)``) lift them into symbolic
    distribution terms the batched ``assume`` understands.
    """

    def leaf(value: Any) -> Any:
        return BatchConst(value) if has_particle_rows(value, n) else value

    return map_leaves(model_state, leaf)


def lift_output(
    graph: BatchedDSGraph, expr: Any, n: int
) -> ChainOuts:
    """The batched ``distribution(e, g)`` of Section 5.3 for one output.

    Mirrors :func:`repro.delayed.interface.lift_distribution`: concrete
    values lift to delta rows, a bare variable reports its marginal
    snapshot (any slot family), affine images of Gaussian variables
    transform in closed form, and non-affine terms force realization —
    all as population-sized arrays.
    """
    if not is_symbolic(expr):
        return ChainOuts("delta", delta_rows(expr, n))
    if isinstance(expr, BatchConst):
        return ChainOuts("delta", delta_rows(expr.values, n))
    if isinstance(expr, RVar):
        return _outs_from_snapshot(graph.marginal_snapshot(expr.node), n)
    form = extract_affine(expr) if isinstance(expr, SymExpr) else None
    if form is not None and isinstance(form.rv, BatchedNode):
        snap = graph.marginal_snapshot(form.rv)
        transformed = _affine_outs(snap, form.coeff, form.const, n)
        if transformed is not None:
            return transformed
    # Fallback: force realization (the dependency-breaking rule).
    return ChainOuts("delta", delta_rows(batched_eval(expr, graph), n))


def delta_rows(value: Any, n: int) -> np.ndarray:
    """Broadcast a concrete output to the particle axis.

    Scalars fan out to ``(n,)``; shared vectors tile to ``(n, d)``;
    arrays whose leading axis is already the particle count pass
    through. Used by the lift and by the BDS engine's forced outputs.
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape[0] != n:
        return np.tile(arr, (n, 1))
    return arr


def _outs_from_snapshot(snap: Tuple, n: int) -> ChainOuts:
    if snap[0] == "delta":
        return ChainOuts("delta", snap[1])
    kind, mean, var = snap
    return ChainOuts(kind, mean, var)


def _affine_outs(snap: Tuple, coeff: Any, const: Any, n: int) -> Optional[ChainOuts]:
    """Closed-form outputs of ``coeff * X + const`` given X's snapshot.

    Only Gaussian snapshots transform in closed form; Beta / Bernoulli
    snapshots report None so the caller falls back to forced
    realization (the dependency-breaking rule).
    """
    if snap[0] == "delta":
        rows = snap[1]
        if np.ndim(coeff) == 0:
            return ChainOuts("delta", coeff * rows + const)
        if np.ndim(coeff) == 1 and rows.ndim == 2:
            return ChainOuts("delta", batched_rowdot(coeff, rows) + const)
        if np.ndim(coeff) == 2 and rows.ndim == 2:
            return ChainOuts("delta", batched_matvec(coeff, rows) + const)
        return None
    kind, mean, var = snap
    if kind == "gaussian" and np.ndim(coeff) == 0:
        coeff = float(coeff)
        if coeff == 0.0:
            return ChainOuts("delta", delta_rows(const, n))
        return ChainOuts("gaussian", coeff * mean + const, coeff * coeff * var)
    if kind == "mv_gaussian" and np.ndim(coeff) == 1:
        row = np.asarray(coeff, dtype=float)
        out_var = float(row @ var @ row)
        out_mean = batched_rowdot(row, mean) + const
        if out_var <= 0.0:
            return ChainOuts("delta", out_mean)
        return ChainOuts("gaussian", out_mean, out_var)
    if kind == "mv_gaussian" and np.ndim(coeff) == 2:
        a = np.asarray(coeff, dtype=float)
        return ChainOuts(
            "mv_gaussian", batched_matvec(a, mean) + const, a @ var @ a.T
        )
    return None
