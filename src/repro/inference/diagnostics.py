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

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["StepStats", "DiagnosticsLog", "step_log_evidence"]


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


def _log_sum_exp(values: np.ndarray) -> float:
    """``log sum_i exp(values_i)``, with ``NaN`` entries as ``-inf``."""
    top = values.max()
    if top != top:
        values = np.where(np.isnan(values), -np.inf, values)
        top = values.max()
    if not math.isfinite(top):
        return float(top)
    shifted = values - top
    np.exp(shifted, out=shifted)
    return float(top) + math.log(shifted.sum())


def step_log_evidence(
    prev_log_weights: Sequence[float],
    step_log_weights: Sequence[float],
    weights: np.ndarray,
) -> float:
    """The incremental log-evidence of one step.

    It is the previous-weight-weighted mean of the step likelihoods,
    ``log sum_i prev_w_i * exp(step_logw_i)``, or ``lse(prev + step) -
    lse(prev)``: the classic ``log mean w`` after a resample. ``weights``
    must be ``normalize_log_weights(prev + step)``, which holds the first
    term already: its largest entry is ``1 / sum_i exp(prev_i + step_i -
    top)``. The previous weights are never normalized or logged.

    As in :func:`~repro.inference.resampling.normalize_log_weights`, a
    ``NaN`` log-weight counts as ``-inf``, a ``+inf`` step log-weight
    makes the evidence ``+inf``, and previous log-weights with no finite
    maximum are uniform (all ``-inf``) or spread over their ``+inf``
    entries. A previous weight below the float range (``prev_i`` ~745
    under the largest) still counts, where normalizing it first rounded
    it to zero.
    """
    prev = np.asarray(prev_log_weights, dtype=float)
    step = np.asarray(step_log_weights, dtype=float)
    prev_total = _log_sum_exp(prev)
    if math.isfinite(prev_total):
        i = int(weights.argmax())
        head = float(prev[i] + step[i])
        if head != head:  # every particle scored -inf or NaN
            return -math.inf
        return head - math.log(weights[i]) - prev_total
    if prev_total == math.inf:
        step = step[prev == math.inf]
    return _log_sum_exp(step) - math.log(step.size)


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
