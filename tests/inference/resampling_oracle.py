"""The binary-search systematic resampler, kept as a test oracle.

This is how :func:`repro.inference.resampling.systematic_indices` used
to draw every ancestor: one uniform offset ``u``, positions
``(u + j) / n``, and one binary search per position in the cumulative
weights. The library now counts draws per particle instead, and
``test_resampling_oracle.py`` holds it to this reference, index for
index.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.inference.resampling import _normalized_weights


def oracle_systematic_indices(
    weights: Sequence[float], n: int, rng: np.random.Generator
) -> np.ndarray:
    """Systematic resampling by ``np.searchsorted`` over ``n`` positions."""
    w = _normalized_weights(weights)
    positions = (rng.random() + np.arange(n)) / n
    cumulative = np.cumsum(w)
    cumulative[-1] = 1.0  # guard against round-off
    return np.searchsorted(cumulative, positions).astype(int)
