"""Engine diagnostics: ESS and log-evidence.

The strongest check: SDS with a single particle on a conjugate model
computes the *exact* log marginal likelihood of the observations,
verifiable against the Kalman filter's predictive decomposition
``log p(y_1..y_T) = sum_t log p(y_t | y_1..y_(t-1))``.
"""

import math
import warnings

import numpy as np
import pytest

from repro.bench.data import coin_data, kalman_data
from repro.bench.models import CoinModel, KalmanModel
from repro.dists import Gaussian
from repro.inference import ImportanceSampler, ParticleFilter, infer
from repro.inference.diagnostics import DiagnosticsLog, StepStats
from repro.inference.resampling import normalize_log_weights
from repro.runtime.node import ProbNode


def stats_after_resample(step_log_weights):
    """StepStats of a step that starts from uniform weights."""
    logw = np.asarray(step_log_weights, dtype=float)
    engine = ParticleFilter(KalmanModel(), n_particles=logw.size)
    engine._record_stats(np.zeros(logw.size), logw, normalize_log_weights(logw))
    return engine.last_stats


class ScoresOnce(ProbNode):
    """Particles are numbered at ``init``; particle 0 scores ``score``
    at instant 0, and every other score is 0."""

    def __init__(self, score):
        self.score = score
        self.issued = 0

    def init(self):
        ident = self.issued
        self.issued += 1
        return (ident, 0)

    def step(self, state, inp, ctx):
        ident, t = state
        ctx.factor(self.score if (ident, t) == (0, 0) else 0.0)
        return float(ident), (ident, t + 1)


class TestStepStats:
    def test_uniform_weights(self):
        stats = stats_after_resample([math.log(0.5)] * 4)
        assert stats.log_evidence == pytest.approx(math.log(0.5))
        assert stats.ess == pytest.approx(4.0)
        assert stats.ess_fraction == pytest.approx(1.0)

    def test_degenerate_weights(self):
        stats = stats_after_resample([0.0, -math.inf, -math.inf])
        assert stats.ess == pytest.approx(1.0)
        assert stats.log_evidence == pytest.approx(math.log(1.0 / 3.0))

    def test_all_zero_likelihood(self):
        stats = stats_after_resample([-math.inf, -math.inf])
        assert stats.log_evidence == -math.inf

    def test_nan_particle_adds_nothing_to_the_evidence(self):
        """Regression: one NaN step log-weight made the whole instant's
        evidence ``-inf``, although the particle already has zero weight
        and the other three scored ``log 1``."""
        engine = ImportanceSampler(ScoresOnce(math.nan), n_particles=4, seed=0)
        with pytest.warns(RuntimeWarning, match="NaN log-weight"):
            engine.step(engine.init(), None)
        assert engine.last_stats.log_evidence == pytest.approx(math.log(3 / 4))
        assert engine.last_stats.ess == pytest.approx(3.0)

    def test_pos_inf_particle_makes_the_evidence_infinite(self):
        """Regression: a ``+inf`` step log-weight read NaN evidence and
        uniform weights; it now holds all the mass."""
        engine = ImportanceSampler(ScoresOnce(math.inf), n_particles=4, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist, _ = engine.step(engine.init(), None)
        assert engine.last_stats.log_evidence == math.inf
        assert engine.last_stats.ess == 1.0
        assert list(dist.weights) == [1.0, 0.0, 0.0, 0.0]


class TestDiagnosticsLog:
    def test_accumulates(self):
        log = DiagnosticsLog()
        log.record(StepStats(-1.0, 2.0, 4))
        log.record(StepStats(-2.0, 4.0, 4))
        assert len(log) == 2
        assert log.total_log_evidence == pytest.approx(-3.0)
        assert log.min_ess_fraction == pytest.approx(0.5)

    def test_none_ignored(self):
        log = DiagnosticsLog()
        log.record(None)
        assert len(log) == 0
        assert log.min_ess_fraction == 1.0


def kalman_log_marginal(observations, prior_mean=0.0, prior_var=100.0,
                        motion_var=1.0, obs_var=1.0):
    """Exact log p(y_1..y_T) by the predictive decomposition."""
    total = 0.0
    mu, var = prior_mean, prior_var
    for t, obs in enumerate(observations):
        if t > 0:
            var += motion_var
        total += Gaussian(mu, var + obs_var).log_pdf(obs)
        gain = var / (var + obs_var)
        mu = mu + gain * (obs - mu)
        var = (1.0 - gain) * var
    return total


class TestExactEvidence:
    def test_sds_kalman_log_evidence_exact(self):
        data = kalman_data(25, seed=3)
        engine = infer(KalmanModel(), n_particles=1, method="sds", seed=0)
        state = engine.init()
        log = DiagnosticsLog()
        for obs in data.observations:
            _, state = engine.step(state, obs)
            log.record(engine.last_stats)
        exact = kalman_log_marginal(data.observations)
        assert log.total_log_evidence == pytest.approx(exact, rel=1e-9)

    def test_sds_coin_log_evidence_exact(self):
        data = coin_data(30, seed=4)
        engine = infer(CoinModel(), n_particles=1, method="sds", seed=0)
        state = engine.init()
        log = DiagnosticsLog()
        alpha, beta = 1.0, 1.0
        exact = 0.0
        for obs in data.observations:
            predictive = alpha / (alpha + beta)
            exact += math.log(predictive if obs else 1.0 - predictive)
            alpha, beta = (alpha + 1, beta) if obs else (alpha, beta + 1)
            _, state = engine.step(state, obs)
            log.record(engine.last_stats)
        assert log.total_log_evidence == pytest.approx(exact, rel=1e-9)

    def test_pf_evidence_consistent_with_exact(self):
        """PF's evidence estimate is unbiased: many particles get close."""
        data = kalman_data(15, seed=6)
        exact = kalman_log_marginal(data.observations)
        estimates = []
        for seed in range(5):
            engine = infer(KalmanModel(), n_particles=500, method="pf", seed=seed)
            state = engine.init()
            log = DiagnosticsLog()
            for obs in data.observations:
                _, state = engine.step(state, obs)
                log.record(engine.last_stats)
            estimates.append(log.total_log_evidence)
        assert np.median(estimates) == pytest.approx(exact, abs=1.0)


class TestLivePopulationSize:
    def test_stats_stamp_live_weight_count(self):
        """StepStats carries the live weight-vector length, not the
        engine's configured particle count, so ESS fractions stay
        correct for engines whose population size varies."""
        engine = infer(KalmanModel(), n_particles=10, method="pf", seed=0)
        engine._record_stats(np.zeros(4), np.zeros(4), np.full(4, 0.25))
        assert engine.last_stats.n_particles == 4
        assert engine.last_stats.ess_fraction == pytest.approx(1.0)

    def test_engine_step_stamps_population_size(self):
        engine = infer(KalmanModel(), n_particles=7, method="pf", seed=0)
        _, _ = engine.step(engine.init(), 0.5)
        assert engine.last_stats.n_particles == 7


class TestEssTracking:
    def test_sds_single_particle_full_ess(self):
        data = kalman_data(5, seed=1)
        engine = infer(KalmanModel(), n_particles=1, method="sds", seed=0)
        state = engine.init()
        for obs in data.observations:
            _, state = engine.step(state, obs)
            assert engine.last_stats.ess == pytest.approx(1.0)

    def test_pf_ess_between_one_and_n(self):
        data = kalman_data(10, seed=2)
        engine = infer(KalmanModel(), n_particles=20, method="pf", seed=0)
        state = engine.init()
        for obs in data.observations:
            _, state = engine.step(state, obs)
            assert 1.0 <= engine.last_stats.ess <= 20.0
