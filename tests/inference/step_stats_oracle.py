"""The re-normalizing step statistics, kept as a test oracle.

This is how every engine used to record an instant's :class:`StepStats`:
normalize the previous log-weights a second time, take their log, add
the step log-weights and run a third log-sum-exp. The library now takes
the evidence as ``lse(prev + step) - lse(prev)`` without normalizing the
previous weights, and ``test_step_stats_oracle.py`` holds it to this
reference. The bodies are the old library code, except that a NaN
log-weight is neither warned about nor counted here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.inference.diagnostics import StepStats


def oracle_normalize_log_weights(log_weights: Sequence[float]) -> np.ndarray:
    """Normalized weights: NaN as ``-inf``, ``+inf`` takes all the mass."""
    logw = np.asarray(log_weights, dtype=float)
    nan_mask = np.isnan(logw)
    if nan_mask.any():
        logw = np.where(nan_mask, -np.inf, logw)
    top = logw.max()
    if top == -np.inf:
        return np.full(logw.size, 1.0 / logw.size)
    if top == np.inf:
        w = (logw == top).astype(float)
        return w / w.sum()
    w = np.exp(logw - top)
    total = w.sum()
    if not total > 0:
        return np.full(logw.size, 1.0 / logw.size)
    return w / total


def oracle_ess(weights: Sequence[float]) -> float:
    """Effective sample size ``1 / sum(w_i^2)``."""
    w = np.asarray(weights, dtype=float)
    denom = float(np.sum(w * w))
    if denom <= 0.0:
        return 0.0
    return 1.0 / denom


def oracle_step_stats(
    prev_log_weights: Sequence[float],
    step_log_weights: Sequence[float],
    weights: np.ndarray,
) -> StepStats:
    """Evidence ``log sum_i prev_w_i * exp(step_logw_i)`` through ``log prev_w``."""
    prev_w = oracle_normalize_log_weights(prev_log_weights)
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
    return StepStats(evidence, oracle_ess(weights), int(weights.size))
