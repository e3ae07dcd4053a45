"""Base classes for probability distributions.

All distributions in this package share a small, explicit interface:

* :meth:`Distribution.sample` draws a value using a caller-supplied
  :class:`numpy.random.Generator` (no hidden global state — inference
  engines own their generators so runs are reproducible),
* :meth:`Distribution.log_pdf` scores a value (density or mass in log
  space, the form used by ``observe``/``factor``),
* :meth:`Distribution.mean` and :meth:`Distribution.variance` expose the
  first two moments where they exist, used by the benchmark error metrics.

Distributions are immutable value objects: conditioning in the delayed
sampling graph always produces a *new* distribution.
"""

from __future__ import annotations

import abc
import math
from typing import Any

import numpy as np

from repro.errors import DistributionError

__all__ = [
    "Distribution",
    "ScalarDistribution",
    "normalize_weights",
    "require_positive",
    "require_prob",
]


def require_positive(name: str, value: float) -> float:
    """Validate that a scalar parameter is strictly positive."""
    value = float(value)
    if not value > 0.0 or math.isnan(value):
        raise DistributionError(f"{name} must be > 0, got {value!r}")
    return value


def require_prob(name: str, value: float) -> float:
    """Validate that a scalar parameter lies in the closed interval [0, 1]."""
    value = float(value)
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise DistributionError(f"{name} must be in [0, 1], got {value!r}")
    return value


def normalize_weights(weights: np.ndarray, name: str = "weights") -> np.ndarray:
    """A float weight vector divided by its total, after checking it.

    Negative entries and an all-zero vector are rejected. Only the
    scalar total is tested further: an infinite total comes from an
    infinite weight, which is rejected (``inf / inf`` would be NaN), or
    from finite weights whose sum overflows, which are scaled by their
    maximum first so that they do not all divide to zero. NumPy still
    warns about that overflow: silencing it would cost every call an
    ``errstate`` block.
    """
    if np.any(weights < 0):
        raise DistributionError(f"{name} must be non-negative")
    total = weights.sum()
    if not total > 0:
        raise DistributionError(f"{name} must not all be zero")
    if total == math.inf:
        top = weights.max()
        if top == math.inf:
            raise DistributionError(f"{name} must be finite")
        weights = weights / top
        total = weights.sum()
    return weights / total


class Distribution(abc.ABC):
    """A probability distribution over values of some type.

    Subclasses must be immutable; all parameters are fixed at
    construction time and validated there.

    The empty ``__slots__`` here matters: distributions are the hottest
    allocation in the scalar delayed samplers (every conjugate update
    builds a new object), and a slotted subclass only sheds its
    per-instance ``__dict__`` if *every* base declares slots too.
    """

    __slots__ = ()

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> Any:
        """Draw one value from the distribution."""

    @abc.abstractmethod
    def log_pdf(self, value: Any) -> float:
        """Log density (or log mass) of ``value``.

        Returns ``-inf`` for values outside the support.
        """

    @abc.abstractmethod
    def mean(self) -> Any:
        """Expected value. Raises :class:`DistributionError` if undefined."""

    @abc.abstractmethod
    def variance(self) -> Any:
        """Variance. Raises :class:`DistributionError` if undefined."""

    def pdf(self, value: Any) -> float:
        """Density (or mass) of ``value``; convenience over :meth:`log_pdf`."""
        return math.exp(self.log_pdf(value))

    # The number of abstract memory "words" this object occupies, used by
    # the ideal-memory instrumentation (Section 6.3 of the paper). A plain
    # scalar-parameter distribution is a small constant.
    def memory_words(self) -> int:
        """Approximate size in abstract heap words (for memory profiling)."""
        return 4


class ScalarDistribution(Distribution):
    """A distribution over real scalars (or scalar-like values)."""

    __slots__ = ()

    def sample(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def stddev(self) -> float:
        """Standard deviation, derived from :meth:`variance`."""
        return math.sqrt(self.variance())
