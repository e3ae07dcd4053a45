"""Inference diagnostics: effective sample size and log-evidence.

Streaming filters need observability: :class:`StepStats` captures, for
every synchronous step, the effective sample size before resampling and
the step's incremental log-evidence

    log Z_t = log ( (1/N) * sum_i w_i )

whose running sum estimates the log marginal likelihood
``log p(y_1..y_t)`` of the observations under the model. For the
delayed samplers this estimate is Rao-Blackwellized; with SDS on a
fully conjugate model (Kalman, Coin) a *single particle* computes the
exact marginal likelihood — a strong correctness check used by the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.inference.resampling import ess, normalize_log_weights

__all__ = ["StepStats", "DiagnosticsLog", "step_stats_from_log_weights"]


@dataclass(frozen=True)
class StepStats:
    """Diagnostics of one inference step."""

    #: incremental log-evidence log( mean_i exp(logw_i) )
    log_evidence: float
    #: effective sample size of the normalized weights, in [1, N]
    ess: float
    #: number of particles
    n_particles: int

    @property
    def ess_fraction(self) -> float:
        """ESS as a fraction of the particle count."""
        return self.ess / self.n_particles


def step_stats_from_log_weights(
    prev_log_weights: Sequence[float],
    step_log_weights: Sequence[float],
    weights: np.ndarray,
) -> StepStats:
    """:class:`StepStats` of one step, as every engine records it.

    The incremental evidence is the previous-weight-weighted mean of
    the step likelihoods, ``log sum_i prev_w_i * exp(step_logw_i)``;
    with uniform previous weights (after a resample) this is the
    classic ``log mean w``. ``weights`` are the step's normalized
    weights, whose ESS is reported. Like
    :func:`~repro.inference.resampling.normalize_log_weights`, a
    ``NaN`` step log-weight counts as ``-inf`` (that particle adds
    nothing) and a ``+inf`` one makes the evidence ``+inf``.
    """
    prev_w = normalize_log_weights(prev_log_weights)
    with np.errstate(divide="ignore"):
        combined = np.log(prev_w) + np.asarray(step_log_weights, dtype=float)
    top = combined.max()
    if np.isnan(top):
        combined = np.where(np.isnan(combined), -np.inf, combined)
        top = combined.max()
    if np.isinf(top):
        evidence = float(top)
    else:
        evidence = float(top + np.log(np.sum(np.exp(combined - top))))
    return StepStats(evidence, ess(weights), int(weights.size))


class DiagnosticsLog:
    """Accumulates per-step diagnostics of an engine run."""

    def __init__(self):
        self.steps: List[StepStats] = []

    def record(self, stats: Optional[StepStats]) -> None:
        if stats is not None:
            self.steps.append(stats)

    @property
    def total_log_evidence(self) -> float:
        """Estimate of ``log p(y_1..y_T)``: the sum of step evidences."""
        return float(sum(s.log_evidence for s in self.steps))

    @property
    def min_ess_fraction(self) -> float:
        """The worst weight degeneracy seen across the run."""
        if not self.steps:
            return 1.0
        return min(s.ess_fraction for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)
