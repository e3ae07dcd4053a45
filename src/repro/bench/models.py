"""The paper's benchmark models (Section 6.1, Appendix B).

Each model is a :class:`~repro.runtime.node.ProbNode` in the shape the
ProbZelus compiler produces after static reduction: an explicit initial
state and a transition function threading the probabilistic context.
The ProbZelus source each one corresponds to is quoted in its docstring.

Models:

* :class:`KalmanModel` — Appendix B.1 (also the HMM of Fig. 1 / Section 2
  with unit variances; :class:`HmmModel` exposes the Section-2 constants),
* :class:`CoinModel` — Appendix B.2,
* :class:`OutlierModel` — Appendix B.3,
* :class:`HmmInitModel` and :class:`WalkModel` — the Section 5.3
  pathologies that defeat bounded-memory SDS, plus
  :class:`BoundedWalkModel`, the ``value``-forcing mitigation.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.lang import bernoulli, beta, categorical, dirichlet, gamma, gaussian, poisson
from repro.runtime.node import ProbCtx, ProbNode

__all__ = [
    "KalmanModel",
    "HmmModel",
    "CoinModel",
    "OutlierModel",
    "HmmInitModel",
    "WalkModel",
    "BoundedWalkModel",
    "PoissonCountModel",
    "DirichletCategoricalModel",
    "MixedFragmentModel",
]


class KalmanModel(ProbNode):
    """One-dimensional Gaussian state-space model (Appendix B.1).

    ::

        let node delay_kalman (prob, yobs) = xt where
          rec xt = sample (prob, gaussian ((0., 100.) -> (pre xt, 1.)))
          and () = observe (prob, gaussian (xt, 1.), yobs)

    State is the previous position (``None`` at the first instant).
    Under SDS each particle computes the exact Kalman-filter posterior.
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

    def init(self) -> Any:
        return None

    def step(self, state: Any, yobs: float, ctx: ProbCtx) -> Tuple[Any, Any]:
        if state is None:
            xt = ctx.sample(gaussian(self.prior_mean, self.prior_var))
        else:
            xt = ctx.sample(gaussian(state, self.motion_var))
        ctx.observe(gaussian(xt, self.obs_var), yobs)
        return xt, xt


class HmmModel(KalmanModel):
    """The Section-2 HMM: position tracking with speed and noise constants.

    ::

        let node hmm y = x where
          rec x = sample (gaussian (0 -> pre x, speed_x))
          and () = observe (gaussian (x, noise_x), y)
    """

    def __init__(self, speed_x: float = 1.0, noise_x: float = 1.0):
        super().__init__(
            prior_mean=0.0, prior_var=speed_x, motion_var=speed_x, obs_var=noise_x
        )


class CoinModel(ProbNode):
    """Beta-Bernoulli bias estimation (Appendix B.2).

    ::

        let node coin (prob, yobs) = xt where
          rec init xt = sample (prob, beta (1., 1.))
          and () = observe (prob, bernoulli xt, yobs)

    Under SDS the Beta node is conditioned analytically forever (exact
    posterior); under BDS it is forced at the end of the first step, so
    BDS degenerates to a particle filter from step 2 on — exactly the
    behaviour discussed in Section 6.2.
    """

    def __init__(self, alpha: float = 1.0, beta_param: float = 1.0):
        self.alpha = alpha
        self.beta_param = beta_param

    def init(self) -> Any:
        return None

    def step(self, state: Any, yobs: bool, ctx: ProbCtx) -> Tuple[Any, Any]:
        if state is None:
            xt = ctx.sample(beta(self.alpha, self.beta_param))
        else:
            xt = state
        ctx.observe(bernoulli(xt), yobs)
        return xt, xt


class OutlierModel(ProbNode):
    """Position tracking with a faulty sensor (Appendix B.3, Minka 2001).

    ::

        let node outlier (prob, yobs) = xt where
          rec xt = sample (prob, gaussian ((0., 100.) -> (pre xt, 1.)))
          and init outlier_prob = sample (prob, beta (100., 1000.))
          and is_outlier = sample (prob, bernoulli outlier_prob)
          and () = present is_outlier -> observe (prob, gaussian (0., 100.), yobs)
                   else observe (prob, gaussian (xt, 1.), yobs)

    The outlier indicator must be a concrete boolean to branch on, so it
    is forced with ``ctx.value`` — under the delayed samplers this
    realizes the Bernoulli child (conditioning the Beta parent) while the
    position chain stays symbolic: a Rao-Blackwellized particle filter.
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

    def init(self) -> Any:
        return None  # (previous position, outlier_prob) after the first step

    def step(self, state: Any, yobs: float, ctx: ProbCtx) -> Tuple[Any, Any]:
        if state is None:
            xt = ctx.sample(gaussian(self.prior_mean, self.prior_var))
            outlier_prob = ctx.sample(beta(self.outlier_alpha, self.outlier_beta))
        else:
            prev_x, outlier_prob = state
            xt = ctx.sample(gaussian(prev_x, self.motion_var))
        is_outlier = ctx.value(ctx.sample(bernoulli(outlier_prob)))
        if is_outlier:
            ctx.observe(gaussian(self.outlier_mean, self.outlier_var), yobs)
        else:
            ctx.observe(gaussian(xt, self.obs_var), yobs)
        return xt, (xt, outlier_prob)


class HmmInitModel(ProbNode):
    """The ``hmm_init`` pathology of Section 5.3.

    ::

        let node hmm_init(xo, y) = x where
          rec init i = sample(normal(xo, noise_x))
          and x = sample (gaussian (i -> pre x, speed_x))
          and () = observe(gaussian (x, noise_x), y)

    The state keeps a reference to the never-realized initial guess
    ``i``, which anchors the whole chain: even the pointer-minimal graph
    cannot collect the history, so SDS memory grows linearly. Used by
    the memory-pathology tests.
    """

    def __init__(self, xo: float = 0.0, noise_x: float = 1.0, speed_x: float = 1.0):
        self.xo = xo
        self.noise_x = noise_x
        self.speed_x = speed_x

    def init(self) -> Any:
        return None  # (i, prev x) after the first step

    def step(self, state: Any, yobs: float, ctx: ProbCtx) -> Tuple[Any, Any]:
        if state is None:
            i = ctx.sample(gaussian(self.xo, self.noise_x))
            x = ctx.sample(gaussian(i, self.speed_x))
        else:
            i, prev_x = state
            x = ctx.sample(gaussian(prev_x, self.speed_x))
        ctx.observe(gaussian(x, self.noise_x), yobs)
        return x, (i, x)


class WalkModel(ProbNode):
    """The unobserved random walk of Section 5.3.

    ::

        let node walk() = x where rec x = sample(normal(0 -> pre x, 1))

    With no observations, every node stays *initialized*; initialized
    nodes keep backward pointers to their parents, so the chain grows
    without bound even under SDS.
    """

    def init(self) -> Any:
        return None

    def step(self, state: Any, inp: Any, ctx: ProbCtx) -> Tuple[Any, Any]:
        mean = 0.0 if state is None else state
        x = ctx.sample(gaussian(mean, 1.0))
        return x, x


class BoundedWalkModel(ProbNode):
    """The mitigation of Section 5.3: force trailing nodes.

    ::

        and () = value(0 -> pre (0 -> pre x))

    Forcing the value of ``x`` two steps back cuts the initialized chain
    at a bounded depth without losing the exactness of the current
    step's marginal.
    """

    def init(self) -> Any:
        return (None, None)  # (pre pre x, pre x)

    def step(self, state: Any, inp: Any, ctx: ProbCtx) -> Tuple[Any, Any]:
        pre_pre_x, pre_x = state
        mean = 0.0 if pre_x is None else pre_x
        x = ctx.sample(gaussian(mean, 1.0))
        if pre_pre_x is not None:
            ctx.value(pre_pre_x)
        return x, (pre_x, x)


class PoissonCountModel(ProbNode):
    """Gamma-Poisson arrival-rate estimation (count-data workload).

    ::

        let node counts (prob, yobs) = lam where
          rec init lam = sample (prob, gamma (shape, rate))
          and () = observe (prob, poisson lam, yobs)

    The Coin model's shape over count observations: under SDS the Gamma
    rate is conditioned analytically forever — after ``k`` observations
    totalling ``s`` the posterior is ``Gamma(shape + s, rate + k)`` —
    while BDS forces the rate at the end of the first step and
    degenerates to a particle filter, mirroring Section 6.2.
    """

    def __init__(self, shape: float = 2.0, rate: float = 1.0):
        self.shape = shape
        self.rate = rate

    def init(self) -> Any:
        return None

    def step(self, state: Any, yobs: int, ctx: ProbCtx) -> Tuple[Any, Any]:
        if state is None:
            lam = ctx.sample(gamma(self.shape, self.rate))
        else:
            lam = state
        ctx.observe(poisson(lam), yobs)
        return lam, lam


class DirichletCategoricalModel(ProbNode):
    """Dirichlet-Categorical proportion estimation (switching workload).

    ::

        let node switch (prob, yobs) = probs where
          rec init probs = sample (prob, dirichlet alpha)
          and () = observe (prob, categorical probs, yobs)

    Estimates the mixing proportions of a categorical stream — the
    emission half of an HMM-style switching model. Under SDS the
    Dirichlet concentration is conditioned analytically (the observed
    category's pseudo-count grows by one per step).
    """

    def __init__(self, alpha: Tuple[float, ...] = (1.0, 1.0, 1.0)):
        self.alpha = tuple(float(a) for a in alpha)

    def init(self) -> Any:
        return None

    def step(self, state: Any, yobs: int, ctx: ProbCtx) -> Tuple[Any, Any]:
        if state is None:
            probs = ctx.sample(dirichlet(self.alpha))
        else:
            probs = state
        ctx.observe(categorical(probs), yobs)
        return probs, probs


class MixedFragmentModel(ProbNode):
    """``n_slots`` independent Gamma-Poisson slots, some non-conjugate.

    Each step draws ``n_slots`` fresh arrival rates and observes one
    count per slot. ``realize`` selects how many of those observations
    are non-conjugate — ``poisson(2 * lam)`` instead of ``poisson(lam)``
    — which the delayed samplers can only handle by realizing that
    slot's rate (dependency breaking). ``"none"`` keeps the whole step
    inside the conjugate fragment, ``"one"`` realizes a single slot per
    step, ``"all"`` realizes every slot: the benchmark's knob for
    measuring the cost of per-slot realize-and-continue on the batched
    graph (which keeps the remaining slots symbolic either way).
    """

    def __init__(
        self,
        n_slots: int = 4,
        realize: str = "none",
        shape: float = 2.0,
        rate: float = 1.0,
    ):
        if realize not in ("none", "one", "all"):
            raise ValueError(f"realize must be none/one/all, got {realize!r}")
        self.n_slots = n_slots
        self.realize = realize
        self.shape = shape
        self.rate = rate

    def init(self) -> Any:
        return None

    def step(self, state: Any, yobs: Any, ctx: ProbCtx) -> Tuple[Any, Any]:
        broken = {"none": 0, "one": 1, "all": self.n_slots}[self.realize]
        for i in range(self.n_slots):
            lam = ctx.sample(gamma(self.shape, self.rate))
            if i < broken:
                ctx.observe(poisson(2.0 * lam), yobs[i])
            else:
                ctx.observe(poisson(lam), yobs[i])
        return 0.0, None


# Fill the vectorized backend's routing maps: they live in
# repro.vectorized but start empty, so the dependency points from this
# benchmark layer to the core, not the other way.
from repro.vectorized.engine import (  # noqa: E402
    VectorizedBetaBernoulliSDS,
    VectorizedKalmanSDS,
)
from repro.vectorized.models import (  # noqa: E402
    CLOSED_FORM_SDS,
    GraphOutlierModel,
    coin_vectorizer,
    kalman_vectorizer,
    outlier_vectorizer,
    register_ds_graph_model,
    register_vectorizer,
)

register_vectorizer(KalmanModel, kalman_vectorizer)
register_vectorizer(HmmModel, kalman_vectorizer)
register_vectorizer(CoinModel, coin_vectorizer)
register_vectorizer(OutlierModel, outlier_vectorizer)
# The Kalman/HMM chains and the Coin model keep closed-form sds engines
# (mean/variance recursions, conjugate counts); their bds runs on the
# array-native graph engine of repro.vectorized.sds_graph.
CLOSED_FORM_SDS[KalmanModel] = VectorizedKalmanSDS
CLOSED_FORM_SDS[HmmModel] = VectorizedKalmanSDS
CLOSED_FORM_SDS[CoinModel] = VectorizedBetaBernoulliSDS
register_ds_graph_model(KalmanModel)
register_ds_graph_model(HmmModel)
# The Outlier model runs on the *generic* batched DS graph under both
# methods: the lockstep adapter rewrites its per-particle branch as a
# masked affine observation, and the Beta→Bernoulli branch becomes
# batched conjugate slots beside the Gaussian position chain. The
# retired bespoke VectorizedOutlierSDS engine survives only as the
# equivalence oracle in tests/vectorized/outlier_oracle.py.
register_ds_graph_model(OutlierModel, adapter=GraphOutlierModel)
register_ds_graph_model(CoinModel)
# The conjugacy families beyond Gaussian and Beta ride the same generic
# graph: Gamma-Poisson count streams and Dirichlet-Categorical switching
# proportions, plus the mixed-fragment model whose non-conjugate slots
# exercise in-graph per-slot realize-and-continue instead of scalar
# migration.
register_ds_graph_model(PoissonCountModel)
register_ds_graph_model(DirichletCategoricalModel)
register_ds_graph_model(MixedFragmentModel)
