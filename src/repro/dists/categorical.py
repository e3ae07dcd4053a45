"""Categorical, Dirichlet, and Empirical distributions.

The empirical (weighted support) distribution is the output of the
importance sampler and the particle filter: the paper's ``infer``
"normalizes results into a categorical distribution, i.e., a discrete
distribution over the results" (Section 5.1).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.dists.base import Distribution, normalize_weights
from repro.errors import DistributionError

__all__ = ["Categorical", "Dirichlet", "Empirical"]


class Categorical(Distribution):
    """Distribution over integer categories ``0..k-1`` with probabilities ``probs``."""

    __slots__ = ("probs",)

    def __init__(self, probs: Sequence[float]):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise DistributionError("probs must be a non-empty vector")
        self.probs = normalize_weights(probs, "probs")
        self.probs.setflags(write=False)

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.probs.size, p=self.probs))

    def log_pdf(self, value) -> float:
        k = int(value)
        if not 0 <= k < self.probs.size:
            return -math.inf
        p = self.probs[k]
        return math.log(p) if p > 0 else -math.inf

    def mean(self) -> float:
        return float(np.dot(np.arange(self.probs.size), self.probs))

    def variance(self) -> float:
        idx = np.arange(self.probs.size)
        mean = self.mean()
        return float(np.dot((idx - mean) ** 2, self.probs))

    def memory_words(self) -> int:
        return 2 + self.probs.size

    def __repr__(self) -> str:
        return f"Categorical(k={self.probs.size})"


class Dirichlet(Distribution):
    """Dirichlet distribution over the probability simplex."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: Sequence[float]):
        alpha = np.asarray(alpha, dtype=float)
        if alpha.ndim != 1 or alpha.size < 2:
            raise DistributionError("alpha must be a vector of length >= 2")
        if not alpha.min() > 0:
            raise DistributionError("alpha entries must be > 0")
        self.alpha = alpha
        self.alpha.setflags(write=False)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.dirichlet(self.alpha)

    def log_pdf(self, value) -> float:
        value = np.asarray(value, dtype=float)
        if value.shape != self.alpha.shape:
            return -math.inf
        if np.any(value < 0) or not np.isclose(value.sum(), 1.0, atol=1e-8):
            return -math.inf
        with np.errstate(divide="ignore"):
            logs = np.where(value > 0, np.log(value), -np.inf)
        if np.any(np.isneginf(logs) & (self.alpha > 1)):
            return -math.inf
        log_norm = math.lgamma(self.alpha.sum()) - sum(
            math.lgamma(a) for a in self.alpha
        )
        return float(log_norm + np.sum((self.alpha - 1.0) * logs))

    def mean(self) -> np.ndarray:
        return self.alpha / self.alpha.sum()

    def variance(self) -> np.ndarray:
        total = self.alpha.sum()
        mean = self.alpha / total
        return mean * (1.0 - mean) / (total + 1.0)

    def with_count(self, category: int) -> "Dirichlet":
        """Posterior after one categorical observation of ``category``."""
        alpha = self.alpha.copy()
        alpha[category] += 1.0
        return Dirichlet(alpha)

    def memory_words(self) -> int:
        return 2 + self.alpha.size

    def __repr__(self) -> str:
        return f"Dirichlet(k={self.alpha.size})"


class Empirical(Distribution):
    """Weighted empirical distribution over arbitrary support values.

    This is the categorical-over-results representation returned by the
    sampling-based engines. ``values`` may hold floats, arrays, tuples —
    whatever the model outputs.
    """

    __slots__ = ("values", "weights")

    def __init__(self, values: Sequence[Any], weights: Sequence[float] = None):
        values = list(values)
        if not values:
            raise DistributionError("empirical distribution needs at least one value")
        if weights is None:
            weights = np.full(len(values), 1.0 / len(values))
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.size != len(values):
                raise DistributionError("values and weights must have equal length")
            weights = normalize_weights(weights)
        self.values = values
        self.weights = weights
        self.weights.setflags(write=False)

    def sample(self, rng: np.random.Generator) -> Any:
        idx = int(rng.choice(self.weights.size, p=self.weights))
        return self.values[idx]

    def log_pdf(self, value: Any) -> float:
        mass = 0.0
        for v, w in zip(self.values, self.weights):
            if isinstance(v, np.ndarray) or isinstance(value, np.ndarray):
                if np.array_equal(np.asarray(v), np.asarray(value)):
                    mass += w
            elif v == value:
                mass += w
        return math.log(mass) if mass > 0 else -math.inf

    def mean(self) -> Any:
        acc = None
        for v, w in zip(self.values, self.weights):
            term = np.asarray(v, dtype=float) * w
            acc = term if acc is None else acc + term
        if acc is not None and acc.ndim == 0:
            return float(acc)
        return acc

    def variance(self) -> Any:
        mean = self.mean()
        acc = None
        for v, w in zip(self.values, self.weights):
            diff = np.asarray(v, dtype=float) - mean
            term = w * diff * diff
            acc = term if acc is None else acc + term
        if acc is not None and acc.ndim == 0:
            return float(acc)
        return acc

    def memory_words(self) -> int:
        return 2 + 2 * len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"Empirical(n={len(self.values)})"
