"""The benchmark's three closed-loop workloads.

Each workload generates its inputs from the seed and keeps the ground
truth on the benchmark's side: the program under test receives only
observations. The generators are the benchmark's own, so no change to
``repro`` can change the inputs. A workload instance drives one
*episode*: build the models and engines (set-up), react to ``warmup``
instants, then to ``instants`` timed instants, then check every
posterior mean against its closed-form reference.

Workloads (all ``backend="auto"``, default serial executor):

* ``track-outlier-100k`` — one Outlier tracker (Appendix B.3) under
  ``sds`` with 100,000 particles; the batched delayed-sampling graph.
* ``serve-mix-36x1k`` — one ``StreamServer`` with 36 sessions of 1,000
  particles: {Kalman, Coin, Outlier} x {pf, bds, sds} x 4 seeds, all on
  one synchronous clock (submit one observation per session, then
  ``tick()``).
* ``surface-hmm-100`` — the Section-2 HMM in concrete syntax, parsed
  and compiled on every episode, run under ``sds`` with 100 particles.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

from tracing import registry_totals

# Appendix-B model constants (the defaults of repro.bench.models).
PRIOR_VAR = 100.0
MOTION_VAR = 1.0
OBS_VAR = 1.0
OUTLIER_ALPHA, OUTLIER_BETA = 100.0, 1000.0
OUTLIER_VAR = 100.0

#: The Section-2 HMM (speed_x = noise_x = 1) in ProbZelus concrete syntax.
HMM_SOURCE = """
let node hmm y = x where
  rec x = sample (gaussian (0. -> pre x, 1.))
  and () = observe (gaussian (x, 1.), y)
"""
HMM_VAR = 1.0

#: relative tolerance for "equals its closed form" checks.
EXACT_RTOL = 1e-9
#: how many failure messages an episode keeps.
MAX_PROBLEMS = 20


# ----------------------------------------------------------------------
# inputs and closed-form references
# ----------------------------------------------------------------------
def gaussian_walk(rng, steps, prior_var, motion_var, obs_var, outlier_prob=0.0):
    """Truths, observations and outlier labels of a Gaussian random walk."""
    truths, obs, labels = [], [], []
    x = rng.normal(0.0, math.sqrt(prior_var))
    for _ in range(steps):
        outlier = bool(rng.random() < outlier_prob)
        truths.append(float(x))
        labels.append(outlier)
        if outlier:
            obs.append(float(rng.normal(0.0, math.sqrt(OUTLIER_VAR))))
        else:
            obs.append(float(rng.normal(x, math.sqrt(obs_var))))
        x = rng.normal(x, math.sqrt(motion_var))
    return truths, obs, labels


def outlier_walk(rng, steps):
    prob = rng.beta(OUTLIER_ALPHA, OUTLIER_BETA)
    return gaussian_walk(rng, steps, PRIOR_VAR, MOTION_VAR, OBS_VAR, prob)


def coin_flips(rng, steps):
    bias = float(rng.beta(1.0, 1.0))
    flips = [bool(rng.random() < bias) for _ in range(steps)]
    return [bias] * steps, flips


def kalman_means(obs, prior_var, motion_var, obs_var, skip=None):
    """Exact filtering means; instants flagged in ``skip`` carry no update."""
    means, mean, var = [], 0.0, prior_var
    for t, y in enumerate(obs):
        if t > 0:
            var = var + motion_var
        if skip is None or not skip[t]:
            gain = var / (var + obs_var)
            mean = mean + gain * (y - mean)
            var = (1.0 - gain) * var
        means.append(mean)
    return means


def beta_means(flips, alpha=1.0, beta=1.0):
    """Exact Beta-Bernoulli posterior means."""
    means, heads = [], 0
    for t, flip in enumerate(flips):
        heads += flip
        means.append((alpha + heads) / (alpha + beta + t + 1))
    return means


def sse(estimates, truths):
    """Sum of squared errors of the means against the ground truth."""
    return float(np.sum((np.asarray(estimates) - np.asarray(truths)) ** 2))


def derive_seed(*keys: int) -> int:
    """An engine seed derived from the run seed, episode and stream."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """One episode of a closed-loop workload.

    Subclasses implement ``build`` (set-up after the imports),
    ``react(i)`` (instant ``i``; returns its reaction time in seconds)
    and ``finish`` (end-of-run checks). Failures are counted per
    instant, for serve per session-instant. Episode ``k`` of a run
    draws its own inputs from ``(seed, k)``, so the accuracy a run
    reports pools several independent streams.
    """

    name = ""
    warmup = 10
    instants = 100
    #: instants attempted per reaction (sessions per tick for serve)
    width = 1
    #: keeps the input streams of different workloads apart
    stream_tag = 0
    #: the calibration work timed around each instant (``calibration.py``):
    #: the kind of work the instants spend their time in
    calibration = "python"

    def __init__(self, seed: int, episode: int, tracer):
        self.seed = seed
        self.episode = episode
        self.tracer = tracer
        self.steps = self.warmup + self.instants
        self.rng = np.random.default_rng([seed, self.stream_tag, episode])
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: per stream: (sse of the run's means, sse of the closed form)
        self.sse: List[Tuple[float, float]] = []
        self.state_words: Dict[str, int] = {}

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def check_close(self, label: str, got: List[float], want: List[float]) -> None:
        """Count the instants whose mean misses the closed form."""
        misses = [t for t, (g, w) in enumerate(zip(got, want))
                  if not abs(g - w) <= EXACT_RTOL * max(1.0, abs(w))]
        if misses:
            t = misses[0]
            self.fail(len(misses), f"{label}: {len(misses)} means miss the closed form, "
                                   f"first at instant {t}: {got[t]!r} != {want[t]!r}")

    def check_flat(self, label: str) -> None:
        words = self.state_words
        if words.get("end") != words.get("warm"):
            self.fail(1, f"{label}: state words grew from {words.get('warm')} "
                         f"after warm-up to {words.get('end')}")

    #: server bookkeeping from ``stats()``, reported by the traced run
    evictions = retries = 0

    def retained_outputs(self) -> int:
        """Posteriors the program under test still holds."""
        return 0

    def build(self) -> None:
        raise NotImplementedError

    def react(self, i: int) -> float:
        raise NotImplementedError

    def finish(self, check_state: bool) -> None:
        raise NotImplementedError


class OneStream(Workload):
    """One engine on one observation stream; the consumer reads the mean.

    One instant is ``engine.step`` plus the consumer's ``dist.mean()``.
    Subclasses give ``generate`` (truths, observations, closed-form
    means) and ``model``.
    """

    def __init__(self, seed, episode, tracer):
        super().__init__(seed, episode, tracer)
        self.truths, self.obs, self.reference = self.generate()
        self.means: List[float] = []

    def build(self) -> None:
        import repro

        self.engine = repro.infer(
            self.model(), self.particles, method="sds", backend="auto",
            seed=derive_seed(self.seed, self.episode),
        )
        self.state = self.engine.init()

    def react(self, i: int) -> float:
        tracer = self.tracer
        self.attempted += 1
        error = None
        with tracer.instant(i):
            started = perf_counter()
            try:
                dist, self.state = self.engine.step(self.state, self.obs[i])
                mean = float(tracer.query(dist))
            except Exception as exc:
                error, mean = exc, float("nan")
            elapsed = perf_counter() - started
        self.means.append(mean)
        if error is not None:
            self.fail(1, f"instant {i}: step raised {error!r}")
        elif not math.isfinite(mean):
            self.fail(1, f"instant {i}: posterior mean {mean!r}")
        if i == self.warmup - 1:
            self.state_words["warm"] = self.engine.memory_words(self.state)
        return elapsed

    def finish(self, check_state: bool) -> None:
        self.state_words["end"] = self.engine.memory_words(self.state)
        self.check_flat(self.name)
        self.sse = [(sse(self.means, self.truths), sse(self.reference, self.truths))]


class TrackOutlier(OneStream):
    """One Outlier tracker, sds, 100k particles: the batched graph engine."""

    name = "track-outlier-100k"
    particles = 100_000
    instants = 150
    stream_tag = 1
    calibration = "numpy"

    def generate(self):
        truths, obs, labels = outlier_walk(self.rng, self.steps)
        return truths, obs, kalman_means(obs, PRIOR_VAR, MOTION_VAR, OBS_VAR, labels)

    def model(self):
        from repro.bench.models import OutlierModel

        return OutlierModel()

    def finish(self, check_state: bool) -> None:
        super().finish(check_state)
        fallbacks = registry_totals().get("repro_scalar_fallback_total", 0.0)
        if fallbacks:
            self.fail(1, f"{fallbacks:g} scalar fallbacks on the batched engine")


class SurfaceHmm(OneStream):
    """The Section-2 HMM in concrete syntax, compiled, sds, 100 particles."""

    name = "surface-hmm-100"
    particles = 100
    instants = 100
    stream_tag = 3

    def generate(self):
        truths, obs, _ = gaussian_walk(self.rng, self.steps, HMM_VAR, HMM_VAR, HMM_VAR)
        return truths, obs, kalman_means(obs, HMM_VAR, HMM_VAR, HMM_VAR)

    def model(self):
        from repro.core import load
        from repro.frontend import parse_program

        with self.tracer.span("frontend.parse"):
            program = parse_program(HMM_SOURCE)
        with self.tracer.span("core.load"):
            module = load(program)
        return module.prob_node("hmm")

    def finish(self, check_state: bool) -> None:
        super().finish(check_state)
        # sds on this linear-Gaussian chain is exact.
        self.check_close("surface hmm sds", self.means, self.reference)


class _Session:
    """The benchmark's side of one served stream: inputs and truth."""

    def __init__(self, sid, model, method, seed, truths, obs, reference, exact):
        self.sid = sid
        self.model = model
        self.method = method
        self.seed = seed
        self.truths = truths
        self.obs = obs
        self.reference = reference
        #: sds on Kalman and Coin is exact: means must equal the reference
        self.exact = exact
        self.means: List[float] = []
        self.alive = True


class ServeMix(Workload):
    """36 sessions on one StreamServer, one synchronous clock.

    The server is driven only through ``open`` / ``submit`` / ``tick``
    / ``outputs`` / ``close``. Engine state is not reachable through
    that surface, so ``state_words`` replays every session on its own
    ``infer`` engine after the timed window (first episode of a run),
    which also checks that the server served exactly that engine's
    posteriors.
    """

    name = "serve-mix-36x1k"
    particles = 1000
    instants = 150
    width = 36
    stream_tag = 2
    #: per-call interpreter overhead and 1k-element array work in equal measure
    calibration = "mixed"
    MODELS = ("kalman", "coin", "outlier")
    METHODS = ("pf", "bds", "sds")
    REPLICAS = 4

    def __init__(self, seed, episode, tracer):
        super().__init__(seed, episode, tracer)
        self.sessions: List[_Session] = []
        index = 0
        for model in self.MODELS:
            for method in self.METHODS:
                for k in range(self.REPLICAS):
                    self.sessions.append(self._session(model, method, k, index))
                    index += 1

    def _session(self, model, method, k, index):
        rng = self.rng
        if model == "coin":
            truths, obs = coin_flips(rng, self.steps)
            reference = beta_means(obs)
        elif model == "kalman":
            truths, obs, _ = gaussian_walk(rng, self.steps, PRIOR_VAR, MOTION_VAR, OBS_VAR)
            reference = kalman_means(obs, PRIOR_VAR, MOTION_VAR, OBS_VAR)
        else:
            truths, obs, labels = outlier_walk(rng, self.steps)
            reference = kalman_means(obs, PRIOR_VAR, MOTION_VAR, OBS_VAR, labels)
        seed = derive_seed(self.seed, self.episode, index)
        exact = method == "sds" and model != "outlier"
        return _Session(f"{model}-{method}-{k}", model, method, seed, truths, obs,
                        reference, exact)

    @staticmethod
    def _model(name):
        from repro.bench.models import CoinModel, KalmanModel, OutlierModel

        return {"kalman": KalmanModel, "coin": CoinModel, "outlier": OutlierModel}[name]()

    def build(self) -> None:
        import repro

        self.server = repro.StreamServer()
        for s in self.sessions:
            self.server.open(
                self._model(s.model), session_id=s.sid, n_particles=self.particles,
                method=s.method, backend="auto", seed=s.seed,
            )

    def react(self, i: int) -> float:
        server, tracer = self.server, self.tracer
        for s in self.sessions:
            if s.alive:
                tracer.note_submit(s.sid)
                server.submit(s.sid, s.obs[i])
        self.attempted += self.width
        error = None
        with tracer.instant(i):
            started = perf_counter()
            try:
                server.tick()
            except Exception as exc:  # the failing session is evicted
                error = exc
            finally:
                elapsed = perf_counter() - started
        for s in self.sessions:
            if s.alive:
                self._collect(s, i)
            else:
                self.failed += 1
        if error is not None and len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"instant {i}: tick raised {error!r}")
        return elapsed

    def _collect(self, s: _Session, i: int) -> None:
        from repro.errors import InferenceError

        try:
            outputs = self.server.outputs(s.sid)
        except InferenceError:
            s.alive = False
            self.fail(1, f"{s.sid}: evicted at instant {i}")
            return
        if len(outputs) != i + 1:
            s.alive = False
            self.fail(1, f"{s.sid}: {len(outputs)} posteriors after instant {i}")
            return
        mean = float(outputs[-1].mean())
        s.means.append(mean)
        if not math.isfinite(mean):
            self.fail(1, f"{s.sid}: instant {i} posterior mean {mean!r}")

    def retained_outputs(self) -> int:
        return sum(len(self.server.outputs(s.sid)) for s in self.sessions if s.alive)

    def finish(self, check_state: bool) -> None:
        stats = self.server.stats()
        self.evictions = stats["evicted"]
        self.retries = sum(p["retries"] for p in stats["per_session"].values())
        for s in self.sessions:
            if len(s.means) != self.steps:
                continue  # its failed instants are counted already
            if s.exact:
                # equal to its closed form or failed: no accuracy to report
                self.check_close(s.sid, s.means, s.reference)
            else:
                self.sse.append((sse(s.means, s.truths), sse(s.reference, s.truths)))
        if check_state:
            self._replay()
        for s in self.sessions:
            if s.alive:
                self.server.close(s.sid)

    def _replay(self) -> None:
        """State words from a replay of every session on its own engine."""
        import repro

        warm = end = 0
        for s in self.sessions:
            if len(s.means) != self.steps:
                continue
            engine = repro.infer(
                self._model(s.model), self.particles, method=s.method,
                backend="auto", seed=s.seed,
            )
            state = engine.init()
            for t, y in enumerate(s.obs):
                dist, state = engine.step(state, y)
                if float(dist.mean()) != s.means[t]:
                    self.fail(1, f"{s.sid}: served mean at instant {t} differs "
                                 "from its infer() engine")
                    break
                if t == self.warmup - 1:
                    warm += engine.memory_words(state)
            end += engine.memory_words(state)
        self.state_words = {"warm": warm, "end": end}
        self.check_flat(self.name)


WORKLOADS = {w.name: w for w in (TrackOutlier, ServeMix, SurfaceHmm)}
