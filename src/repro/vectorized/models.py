"""Vectorized counterparts of the benchmark models, and the routing maps.

A :class:`VectorizedModel` is the structure-of-arrays analogue of
:class:`~repro.runtime.node.ProbNode`: ``step_batch`` advances *all*
particles one synchronous instant with array kernels and returns the
stacked outputs, the next batch state, and the per-particle step
log-weights — the information the scalar engines collect one particle
at a time through :class:`~repro.inference.contexts.SamplingCtx`.

The classes here mirror ``repro.bench.models`` exactly (same
parameters, same sampling semantics, so the same posterior laws). Three
maps, keyed by exact scalar model class, say which batched engine runs
a model. :func:`~repro.vectorized.engine.make_vectorized_engine` is the
one routing rule that chooses from them, for both
``infer(..., backend="vectorized")`` and ``backend="auto"`` (the static
analysis also looks up a model's adapter, to judge what will run):

* ``VECTORIZED_MODELS`` — the ``pf`` twins (:func:`register_vectorizer`);
* ``DS_GRAPH_MODELS`` — the models the batched delayed-sampling graph
  runs under ``bds``/``sds``, each with its lockstep adapter or None
  (:func:`register_ds_graph_model`);
* ``CLOSED_FORM_SDS`` — the closed-form ``sds`` engines, written
  directly.

The maps start empty and are filled by the layers that own the scalar
models (the benchmark package fills them when imported), so this core
package never depends on them.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Optional, Tuple, Type

import numpy as np

from repro.runtime.node import ProbNode
from repro.vectorized.kernels import (
    bernoulli_log_prob,
    bernoulli_sample,
    gaussian_log_prob,
    gaussian_sample,
)

__all__ = [
    "VectorizedModel",
    "VectorizedKalman",
    "VectorizedCoin",
    "VectorizedOutlier",
    "GraphOutlierModel",
    "VECTORIZED_MODELS",
    "DS_GRAPH_MODELS",
    "CLOSED_FORM_SDS",
    "register_vectorizer",
    "register_ds_graph_model",
    "vectorize_model",
    "kalman_vectorizer",
    "coin_vectorizer",
    "outlier_vectorizer",
]


class VectorizedModel(abc.ABC):
    """A probabilistic stream model advancing all particles at once."""

    @abc.abstractmethod
    def init_batch(self, n: int, rng: np.random.Generator) -> Any:
        """Initial batch state for ``n`` particles (a pytree of arrays)."""

    @abc.abstractmethod
    def step_batch(
        self, state: Any, inp: Any, n: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Any, np.ndarray]:
        """One synchronous step for the whole batch.

        Returns ``(outputs, next_state, step_log_weights)`` where
        ``outputs`` stacks the per-particle outputs and
        ``step_log_weights`` is the length-``n`` vector of this step's
        ``observe``/``factor`` contributions.
        """


class VectorizedKalman(VectorizedModel):
    """Batched 1-D Gaussian state-space model (Appendix B.1 / Fig. 2 HMM).

    State is the stacked position vector; a step draws all motion
    samples with one Gaussian kernel call and scores all observations
    with one log-density call.
    """

    def __init__(
        self,
        prior_mean: float = 0.0,
        prior_var: float = 100.0,
        motion_var: float = 1.0,
        obs_var: float = 1.0,
    ):
        self.prior_mean = prior_mean
        self.prior_var = prior_var
        self.motion_var = motion_var
        self.obs_var = obs_var

    def init_batch(self, n: int, rng: np.random.Generator) -> Any:
        return None

    def step_batch(self, state, yobs, n, rng):
        if state is None:
            xt = gaussian_sample(np.full(n, self.prior_mean), self.prior_var, rng)
        else:
            xt = gaussian_sample(state, self.motion_var, rng)
        logw = gaussian_log_prob(float(yobs), xt, self.obs_var)
        return xt, xt, logw


class VectorizedCoin(VectorizedModel):
    """Batched Beta-Bernoulli bias estimation (Appendix B.2)."""

    def __init__(self, alpha: float = 1.0, beta_param: float = 1.0):
        self.alpha = alpha
        self.beta_param = beta_param

    def init_batch(self, n: int, rng: np.random.Generator) -> Any:
        return None

    def step_batch(self, state, yobs, n, rng):
        if state is None:
            xt = rng.beta(self.alpha, self.beta_param, size=n)
        else:
            xt = state
        logw = bernoulli_log_prob(bool(yobs), xt)
        return xt, xt, logw


class VectorizedOutlier(VectorizedModel):
    """Batched position tracking with a faulty sensor (Appendix B.3).

    The per-particle branch on the outlier indicator becomes a masked
    blend of the two observation log-densities.
    """

    def __init__(
        self,
        prior_mean: float = 0.0,
        prior_var: float = 100.0,
        motion_var: float = 1.0,
        obs_var: float = 1.0,
        outlier_alpha: float = 100.0,
        outlier_beta: float = 1000.0,
        outlier_mean: float = 0.0,
        outlier_var: float = 100.0,
    ):
        self.prior_mean = prior_mean
        self.prior_var = prior_var
        self.motion_var = motion_var
        self.obs_var = obs_var
        self.outlier_alpha = outlier_alpha
        self.outlier_beta = outlier_beta
        self.outlier_mean = outlier_mean
        self.outlier_var = outlier_var

    def init_batch(self, n: int, rng: np.random.Generator) -> Any:
        return None

    def step_batch(self, state, yobs, n, rng):
        if state is None:
            xt = gaussian_sample(np.full(n, self.prior_mean), self.prior_var, rng)
            outlier_prob = rng.beta(self.outlier_alpha, self.outlier_beta, size=n)
        else:
            prev_x, outlier_prob = state
            xt = gaussian_sample(prev_x, self.motion_var, rng)
        is_outlier = bernoulli_sample(outlier_prob, rng)
        yobs = float(yobs)
        logw = np.where(
            is_outlier,
            gaussian_log_prob(yobs, self.outlier_mean, self.outlier_var),
            gaussian_log_prob(yobs, xt, self.obs_var),
        )
        return xt, (xt, outlier_prob), logw


class GraphOutlierModel(ProbNode):
    """Lockstep-friendly Outlier model for the generic batched DS graph.

    Same laws and parameters as the benchmark ``OutlierModel``; the one
    rewrite is the observation. The original branches Python control
    flow on the realized outlier indicator (``if is_outlier: observe(...)
    else: observe(...)``), which cannot run once for a whole population
    — the indicator is a per-particle array. Here the branch is the
    equivalent *masked affine observation*

    ``y ~ N(x * (1 - m) + m * outlier_mean,  where(m, outlier_var, obs_var))``

    which performs exactly the conjugate arithmetic of the branch
    (``m_i = 1``: the chain is ignored and the outlier density scores;
    ``m_i = 0``: the ordinary Kalman update) but as one whole-population
    edge with per-particle coefficient and variance. Under a scalar
    context the mask is a plain 0/1 float, so this model also runs —
    with identical laws — on every scalar engine, which is what the
    mid-stream fallback relies on.
    """

    _PARAMS = (
        "prior_mean",
        "prior_var",
        "motion_var",
        "obs_var",
        "outlier_alpha",
        "outlier_beta",
        "outlier_mean",
        "outlier_var",
    )

    def __init__(self, model: Any):
        for param in self._PARAMS:
            setattr(self, param, float(getattr(model, param)))

    def init(self) -> Any:
        return None  # (previous position, outlier_prob) after the first step

    def step(self, state: Any, yobs: float, ctx) -> Any:
        # Imported lazily: repro.lang pulls in the symbolic layer, which
        # this module otherwise never needs.
        from repro.lang import bernoulli, beta, gaussian

        if state is None:
            xt = ctx.sample(gaussian(self.prior_mean, self.prior_var))
            outlier_prob = ctx.sample(beta(self.outlier_alpha, self.outlier_beta))
        else:
            prev_x, outlier_prob = state
            xt = ctx.sample(gaussian(prev_x, self.motion_var))
        is_outlier = ctx.value(ctx.sample(bernoulli(outlier_prob)))
        mask = np.asarray(is_outlier, dtype=float)
        obs_var = np.where(
            np.asarray(is_outlier, dtype=bool), self.outlier_var, self.obs_var
        )
        # Keep the symbolic term on the left so NumPy never broadcasts
        # an array over the expression node.
        obs_mean = xt * (1.0 - mask) + mask * self.outlier_mean
        ctx.observe(gaussian(obs_mean, obs_var), yobs)
        return xt, (xt, outlier_prob)


# ----------------------------------------------------------------------
# pf twin builders and the routing maps
# ----------------------------------------------------------------------
def kalman_vectorizer(model: Any) -> VectorizedKalman:
    """Builder for any Kalman-shaped model (prior/motion/obs parameters)."""
    return VectorizedKalman(
        prior_mean=model.prior_mean,
        prior_var=model.prior_var,
        motion_var=model.motion_var,
        obs_var=model.obs_var,
    )


def coin_vectorizer(model: Any) -> VectorizedCoin:
    """Builder for any Beta-Bernoulli coin-shaped model."""
    return VectorizedCoin(alpha=model.alpha, beta_param=model.beta_param)


def outlier_vectorizer(model: Any) -> VectorizedOutlier:
    """Builder for any Outlier-shaped model."""
    return VectorizedOutlier(
        prior_mean=model.prior_mean,
        prior_var=model.prior_var,
        motion_var=model.motion_var,
        obs_var=model.obs_var,
        outlier_alpha=model.outlier_alpha,
        outlier_beta=model.outlier_beta,
        outlier_mean=model.outlier_mean,
        outlier_var=model.outlier_var,
    )


# The three maps ``make_vectorized_engine`` routes by. Each is keyed by
# exact class: a subclass may override ``step`` with structure the
# batched engine would miss.

#: scalar model type -> builder of its ``pf`` twin (a VectorizedModel);
#: written by ``register_vectorizer``.
VECTORIZED_MODELS: Dict[Type[ProbNode], Callable[[ProbNode], VectorizedModel]] = {}

#: scalar model type -> lockstep adapter (or None) of the models the
#: batched delayed-sampling graph runs under ``bds`` and ``sds``;
#: written by ``register_ds_graph_model``. The ``auto`` verdict is taken
#: on the adapted model, the one the engine runs.
DS_GRAPH_MODELS: Dict[Type[ProbNode], Optional[Callable[[ProbNode], ProbNode]]] = {}

#: scalar model type -> closed-form ``sds`` engine class
#: (``engine(model, **engine_kwargs)``), which takes precedence over the
#: graph engine for that class.
CLOSED_FORM_SDS: Dict[Type[ProbNode], Callable[..., Any]] = {}


def register_vectorizer(
    model_cls: Type[ProbNode],
    builder: Callable[[ProbNode], VectorizedModel],
) -> None:
    """Register a vectorized equivalent for a scalar model class."""
    VECTORIZED_MODELS[model_cls] = builder


def register_ds_graph_model(
    model_cls: Type[ProbNode],
    adapter: Optional[Callable[[ProbNode], ProbNode]] = None,
    verify: bool = True,
) -> None:
    """Route a model's ``bds`` and ``sds`` to the batched DS graph.

    The model then runs on
    :class:`~repro.vectorized.engine.VectorizedGaussianChainSDS` under
    both methods, except for ``sds`` when ``CLOSED_FORM_SDS`` lists the
    class (e.g. the Kalman/HMM chains keep their mean/variance
    recursions). ``adapter``, when given, wraps the scalar model in a
    lockstep-friendly equivalent before the engine runs it (e.g.
    :class:`GraphOutlierModel`, which rewrites the Outlier model's
    per-particle branch as a masked affine observation).

    With ``verify=True`` (the default) the static analysis
    (:func:`repro.analysis.analysis_for`) is consulted on a
    default-constructed, adapted instance; a *conclusively unbatchable*
    verdict raises a :class:`RuntimeWarning` — the registration still
    happens (the runtime's mid-stream scalar fallback keeps a
    mis-registered model correct, and tests register such models on
    purpose), but the warning points at the exact lockstep/family
    violation the batched engine will trip over.
    """
    if verify:
        _warn_if_unbatchable(model_cls, adapter)
    DS_GRAPH_MODELS[model_cls] = adapter


def _warn_if_unbatchable(
    model_cls: Type[ProbNode], adapter: Optional[Callable[[ProbNode], ProbNode]]
) -> None:
    """Warn when the static analysis conclusively rejects the model.

    A model class whose constructor needs arguments is registered
    without a check; any other error of its constructor or adapter
    propagates.
    """
    import warnings

    # Imported lazily: repro.analysis imports the vectorized layer.
    from repro.analysis.routing import analysis_for

    try:
        instance = model_cls()
    except TypeError:  # the constructor needs arguments
        return
    if adapter is not None:
        instance = adapter(instance)
    analysis = analysis_for(instance)
    if analysis.conclusive and not analysis.batchable:
        details = "; ".join(d.format() for d in analysis.diagnostics) or analysis.reason
        warnings.warn(
            f"register_ds_graph_model({model_cls.__name__}): the static "
            f"analysis finds the model conclusively unbatchable — the "
            f"batched engine will fall back to scalar execution at "
            f"runtime ({details})",
            RuntimeWarning,
            stacklevel=3,
        )


def vectorize_model(model: Any) -> Optional[VectorizedModel]:
    """The batched equivalent of ``model``, or None if not vectorizable.

    A model is vectorizable when it already *is* a
    :class:`VectorizedModel` or when its exact class is registered in
    ``VECTORIZED_MODELS`` (subclasses may override ``step`` arbitrarily,
    so they do not inherit their parent's vectorization).
    """
    if isinstance(model, VectorizedModel):
        return model
    builder = VECTORIZED_MODELS.get(type(model))
    if builder is None:
        return None
    return builder(model)
