"""Resampling schemes and weight utilities for particle methods.

The particle filter "periodically re-samples the set of particles"
(Section 5.1); systematic resampling is the default, with multinomial,
stratified, and residual variants for completeness. Log-weight
normalization is shared by every engine.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from repro.errors import InferenceError
from repro.obs.registry import count_event

__all__ = [
    "normalize_log_weights",
    "committed_log_weights",
    "ess",
    "systematic_indices",
    "stratified_indices",
    "multinomial_indices",
    "residual_indices",
    "RESAMPLERS",
]


def normalize_log_weights(log_weights: Sequence[float]) -> np.ndarray:
    """Normalized linear weights from log weights.

    A ``NaN`` log-weight (a broken kernel scored one particle) is
    treated as ``-inf`` for that particle alone — zero weight, with a
    :class:`RuntimeWarning` so the breakage is visible — never as a
    reason to reset the whole population. A ``+inf`` log-weight
    outweighs every finite one: the weights are the limit, all mass
    spread evenly over the ``+inf`` entries. Degenerate inputs (all
    ``-inf``: every particle scored zero likelihood) fall back to
    uniform weights rather than dying, which is what a streaming filter
    must do to keep running.

    A clean vector costs one ``max``, one subtraction (the only
    temporary, exponentiated and divided in place) and one ``sum``: the
    maximum is NaN exactly when an entry is, so NaNs are looked for only
    then.
    """
    logw = np.asarray(log_weights, dtype=float)
    if logw.size == 0:
        raise InferenceError("cannot normalize an empty weight vector")
    top = logw.max()
    if top != top:
        nan_mask = np.isnan(logw)
        count = int(nan_mask.sum())
        # The warning tells an interactive user once; the counter tells
        # a long-running deployment how often.
        count_event("repro_nan_log_weights_total", amount=count)
        warnings.warn(
            f"{count} NaN log-weight(s) treated as -inf "
            "(zero weight); check the model/kernel that produced them",
            RuntimeWarning,
            stacklevel=2,
        )
        logw = np.where(nan_mask, -np.inf, logw)
        top = logw.max()
    if top == -math.inf:
        return np.full(logw.size, 1.0 / logw.size)
    if top == math.inf:
        w = (logw == top).astype(float)
        return w / w.sum()
    w = logw - top
    np.exp(w, out=w)
    total = w.sum()
    if not total > 0:
        return np.full(logw.size, 1.0 / logw.size)
    w /= total
    return w


def committed_log_weights(log_weights: Sequence[float]) -> np.ndarray:
    """The merged log-weights an engine carries into the next instant.

    A ``NaN`` becomes ``-inf``. Both already mean zero weight, but a
    carried ``NaN`` would reach :func:`normalize_log_weights` again on
    every later instant and be counted and warned about each time.
    """
    logw = np.asarray(log_weights, dtype=float)
    nan_mask = np.isnan(logw)
    if nan_mask.any():
        logw = np.where(nan_mask, -np.inf, logw)
    return logw


def _normalized_weights(weights: Sequence[float]) -> np.ndarray:
    """The weight vector every resampler actually draws from.

    The resamplers' cumulative-sum machinery assumes the weights sum to
    one; historically only ``residual_indices`` normalized internally,
    so an unnormalized vector silently dumped its missing mass on the
    last particle. Normalizing here makes all four schemes agree. An
    already-normalized vector (within round-off of the log-weight
    pipeline) passes through untouched so existing seeded streams are
    preserved bit-for-bit. One ``min`` checks the signs (a NaN entry
    fails the sum check instead) and one ``sum`` the total.
    """
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise InferenceError("cannot resample from an empty weight vector")
    if w.min() < 0:
        raise InferenceError("resampling weights must be non-negative")
    total = float(w.sum())
    if not (total > 0.0 and math.isfinite(total)):
        raise InferenceError(
            "resampling weights must have a positive finite sum, "
            f"got {total!r}"
        )
    if abs(total - 1.0) > 1e-9:
        w = w / total
    return w


def ess(weights: Sequence[float]) -> float:
    """Effective sample size ``1 / sum(w_i^2)`` of normalized weights."""
    w = np.asarray(weights, dtype=float)
    denom = float((w * w).sum())
    if denom <= 0.0:
        return 0.0
    return 1.0 / denom


def systematic_indices(
    weights: Sequence[float], n: int, rng: np.random.Generator
) -> np.ndarray:
    """Systematic resampling: one uniform offset, ``n`` evenly spaced picks.

    Draw ``j`` sits at ``p_j = (u + j) / n`` and takes the first particle
    whose cumulative weight reaches it, ``a_j = #{i : c_i < p_j}``: a
    binary search per draw. Counting gives the same indices. Particle
    ``i``'s run of draws ends at ``k_i = #{j : p_j <= c_i}``, and the
    ancestor of draw ``j`` is the number of runs that end at or before
    it: one ``bincount`` and one ``cumsum``. With ``r`` the integer
    nearest the float ``n c_i - u``, whose round-off (about ``n 2**-52``)
    is far below 1/2, every draw below ``r`` reaches ``c_i`` and every
    draw above it does not, so ``k_i = r + [p_r <= c_i]`` exactly.
    """
    w = _normalized_weights(weights)
    u = rng.random()
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    cumulative = np.cumsum(w)
    cumulative[-1] = 1.0  # guard against round-off
    r = cumulative * n
    r -= u
    np.rint(r, out=r)  # r >= -1, and p_{-1} < 0 <= c_i: every k_i >= 0
    ends = r.astype(np.intp)
    r += u
    r /= n  # p_r, rounded as the binary search rounds its positions
    ends += r <= cumulative
    # Runs that end past the last draw (k_i >= n) fall outside the slice.
    runs_ending = np.bincount(ends, minlength=n + 1)[:n]
    return np.cumsum(runs_ending, out=runs_ending)


def stratified_indices(
    weights: Sequence[float], n: int, rng: np.random.Generator
) -> np.ndarray:
    """Stratified resampling: one uniform draw per stratum."""
    w = _normalized_weights(weights)
    positions = (rng.random(n) + np.arange(n)) / n
    cumulative = np.cumsum(w)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, positions).astype(int)


def multinomial_indices(
    weights: Sequence[float], n: int, rng: np.random.Generator
) -> np.ndarray:
    """Plain multinomial resampling."""
    w = _normalized_weights(weights)
    return rng.choice(w.size, size=n, p=w).astype(int)


def residual_indices(
    weights: Sequence[float], n: int, rng: np.random.Generator
) -> np.ndarray:
    """Residual resampling: deterministic copies, multinomial remainder.

    Each particle ``i`` is first copied ``floor(n * w_i)`` times; the
    ``n - sum floor(n * w_i)`` remaining slots are drawn multinomially
    from the fractional residuals. The deterministic part removes most
    of the multinomial variance while remaining unbiased.
    """
    w = _normalized_weights(weights)
    expected = n * w
    copies = np.floor(expected).astype(int)
    deterministic = np.repeat(np.arange(w.size), copies)
    remainder = n - int(copies.sum())
    if remainder == 0:
        return deterministic
    residuals = expected - copies
    total = residuals.sum()
    if total > 0:
        extra = rng.choice(w.size, size=remainder, p=residuals / total)
    else:
        extra = rng.choice(w.size, size=remainder, p=w)  # w exact multiples of 1/n
    return np.concatenate([deterministic, extra]).astype(int)


RESAMPLERS = {
    "systematic": systematic_indices,
    "stratified": stratified_indices,
    "multinomial": multinomial_indices,
    "residual": residual_indices,
}
