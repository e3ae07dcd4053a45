"""repro — a Python reproduction of ProbZelus (PLDI 2020).

Reactive probabilistic programming: synchronous stream programs with
first-class ``sample`` / ``observe`` / ``infer``, compiled to a
first-order functional core, with streaming inference engines including
bounded and streaming delayed sampling.

Quickstart::

    from repro import infer, gaussian, FunProbNode

    def hmm_step(state, y, ctx):
        mean = 0.0 if state is None else state
        x = ctx.sample(gaussian(mean, 1.0))
        ctx.observe(gaussian(x, 1.0), y)
        return x, x

    engine = infer(FunProbNode(None, hmm_step), n_particles=1, method="sds")
    state = engine.init()
    dist, state = engine.step(state, 0.7)   # posterior over the position
"""

from repro.dists import (
    Bernoulli,
    Beta,
    Binomial,
    Categorical,
    Delta,
    Dirichlet,
    Distribution,
    Empirical,
    Exponential,
    Gamma,
    Gaussian,
    Mixture,
    MvGaussian,
    Poisson,
    TupleDist,
    Uniform,
)
from repro.errors import (
    CausalityError,
    CompilationError,
    DistributionError,
    GraphError,
    InferenceError,
    InitializationError,
    KindError,
    LanguageError,
    ReproError,
    ScopeError,
    SymbolicError,
    TypeCheckError,
)
from repro.exec import (
    Executor,
    PersistentProcessExecutor,
    ResidentPopulation,
    SerialExecutor,
    ShardedPopulation,
    StreamServer,
    ThreadShardExecutor,
    shutdown_executors,
)
from repro.inference import (
    BoundedDelayedSampler,
    ImportanceSampler,
    InferenceEngine,
    MseTracker,
    OriginalDelayedSampler,
    ParticleFilter,
    StreamingDelayedSampler,
    infer,
)
from repro.lang import (
    bernoulli,
    beta,
    binomial,
    categorical,
    delta,
    dirichlet,
    exponential,
    gamma,
    gaussian,
    mv_gaussian,
    poisson,
    uniform,
)
from repro.obs import (
    MetricsRegistry,
    count_event,
    default_registry,
    disable_telemetry,
    enable_telemetry,
    metrics_snapshot,
    telemetry,
    to_prometheus,
)
from repro.runtime import (
    Automaton,
    AutoState,
    FunNode,
    FunProbNode,
    Integr,
    Node,
    NodeInstance,
    Pid,
    Pre,
    ProbCtx,
    ProbNode,
    run,
    run_n,
)
from repro.vectorized import (
    ParticleBatch,
    VectorizedKalmanSDS,
    VectorizedModel,
    VectorizedParticleFilter,
    register_vectorizer,
    vectorize_model,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # inference
    "infer",
    "InferenceEngine",
    "ImportanceSampler",
    "ParticleFilter",
    "BoundedDelayedSampler",
    "StreamingDelayedSampler",
    "OriginalDelayedSampler",
    "MseTracker",
    # vectorized backend
    "ParticleBatch",
    "VectorizedModel",
    "VectorizedParticleFilter",
    "VectorizedKalmanSDS",
    "vectorize_model",
    "register_vectorizer",
    # execution layer
    "Executor",
    "SerialExecutor",
    "ThreadShardExecutor",
    "PersistentProcessExecutor",
    "ShardedPopulation",
    "ResidentPopulation",
    "StreamServer",
    "shutdown_executors",
    # observability
    "MetricsRegistry",
    "default_registry",
    "metrics_snapshot",
    "count_event",
    "enable_telemetry",
    "disable_telemetry",
    "telemetry",
    "to_prometheus",
    # runtime
    "Node",
    "ProbNode",
    "ProbCtx",
    "FunNode",
    "FunProbNode",
    "NodeInstance",
    "run",
    "run_n",
    "Pre",
    "Integr",
    "Pid",
    "Automaton",
    "AutoState",
    # lifted constructors
    "gaussian",
    "mv_gaussian",
    "beta",
    "bernoulli",
    "binomial",
    "gamma",
    "poisson",
    "exponential",
    "uniform",
    "categorical",
    "dirichlet",
    "delta",
    # distributions
    "Distribution",
    "Gaussian",
    "MvGaussian",
    "Beta",
    "Bernoulli",
    "Binomial",
    "Uniform",
    "Delta",
    "Gamma",
    "Poisson",
    "Exponential",
    "Categorical",
    "Dirichlet",
    "Empirical",
    "Mixture",
    "TupleDist",
    # errors
    "ReproError",
    "LanguageError",
    "KindError",
    "TypeCheckError",
    "CausalityError",
    "InitializationError",
    "ScopeError",
    "CompilationError",
    "SymbolicError",
    "GraphError",
    "InferenceError",
    "DistributionError",
]
