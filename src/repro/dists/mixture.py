"""Mixture and tuple distributions.

SDS/DS report a *mixture* of per-particle symbolic marginals at every step
(Section 5.3: "Results are then aggregated in a mixture distribution
w.r.t. their weights"). :class:`Mixture` implements that aggregation.

:class:`TupleDist` is the componentwise product used when a model's output
is a tuple of values; components are treated as independent, which is the
correct marginal view for reporting per-component posteriors.
"""

from __future__ import annotations

import math
import warnings
from typing import Any, Sequence, Tuple

import numpy as np

from repro.dists.base import Distribution, normalize_weights
from repro.errors import DistributionError
from repro.obs.registry import count_event

__all__ = ["Mixture", "TupleDist", "zero_nan_weights"]


def zero_nan_weights(weights: np.ndarray, stacklevel: int = 3) -> np.ndarray:
    """Replace NaN mixture weights with zero, loudly.

    ``np.any(weights < 0)`` is silently False for NaN, so without this
    check the mixture constructors accepted NaN weights and poisoned
    every downstream moment. The policy matches the per-particle NaN
    handling of :func:`repro.inference.resampling.normalize_log_weights`:
    zero weight for that component alone, with a :class:`RuntimeWarning`
    so the broken kernel stays visible.
    """
    nan_mask = np.isnan(weights)
    if nan_mask.any():
        count_event(
            "repro_nan_mixture_weights_total", amount=int(nan_mask.sum())
        )
        warnings.warn(
            f"{int(nan_mask.sum())} NaN mixture weight(s) treated as zero; "
            "check the kernel that produced them",
            RuntimeWarning,
            stacklevel=stacklevel,
        )
        weights = np.where(nan_mask, 0.0, weights)
    return weights


def _logsumexp(values) -> float:
    values = np.asarray(values, dtype=float)
    top = values.max()
    if math.isinf(top) and top < 0:
        return -math.inf
    return float(top + np.log(np.sum(np.exp(values - top))))


class Mixture(Distribution):
    """Weighted mixture of component distributions."""

    __slots__ = ("components", "weights")

    def __init__(self, components: Sequence[Distribution], weights: Sequence[float] = None):
        components = list(components)
        if not components:
            raise DistributionError("mixture needs at least one component")
        if weights is None:
            weights = np.full(len(components), 1.0 / len(components))
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.size != len(components):
                raise DistributionError("components/weights length mismatch")
            weights = normalize_weights(zero_nan_weights(weights, stacklevel=3))
        self.components = components
        self.weights = weights
        self.weights.setflags(write=False)

    def sample(self, rng: np.random.Generator) -> Any:
        idx = int(rng.choice(self.weights.size, p=self.weights))
        return self.components[idx].sample(rng)

    def log_pdf(self, value: Any) -> float:
        terms = []
        for comp, w in zip(self.components, self.weights):
            if w <= 0:
                continue
            terms.append(math.log(w) + comp.log_pdf(value))
        if not terms:
            return -math.inf
        return _logsumexp(terms)

    def mean(self) -> Any:
        acc = None
        for comp, w in zip(self.components, self.weights):
            term = np.asarray(comp.mean(), dtype=float) * w
            acc = term if acc is None else acc + term
        if acc is not None and acc.ndim == 0:
            return float(acc)
        return acc

    def variance(self) -> Any:
        # Law of total variance: E[Var] + Var[E] (componentwise).
        mean = np.asarray(self.mean(), dtype=float)
        acc = None
        for comp, w in zip(self.components, self.weights):
            comp_mean = np.asarray(comp.mean(), dtype=float)
            comp_var = np.asarray(comp.variance(), dtype=float)
            if comp_var.ndim == 2:
                # Covariance matrix: keep the diagonal contribution only
                # when mixing with scalar components is impossible anyway.
                spread = np.outer(comp_mean - mean, comp_mean - mean)
            else:
                diff = comp_mean - mean
                spread = diff * diff
            term = w * (comp_var + spread)
            acc = term if acc is None else acc + term
        if acc is not None and acc.ndim == 0:
            return float(acc)
        return acc

    def memory_words(self) -> int:
        return 2 + sum(c.memory_words() for c in self.components) + len(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __repr__(self) -> str:
        return f"Mixture(n={len(self.components)})"


class TupleDist(Distribution):
    """Product of independent component distributions over tuple values."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[Distribution]):
        self.components = tuple(components)
        if not self.components:
            raise DistributionError("tuple distribution needs at least one component")

    def sample(self, rng: np.random.Generator) -> Tuple[Any, ...]:
        return tuple(c.sample(rng) for c in self.components)

    def log_pdf(self, value) -> float:
        if not isinstance(value, (tuple, list)) or len(value) != len(self.components):
            raise DistributionError("value arity does not match tuple distribution")
        return sum(c.log_pdf(v) for c, v in zip(self.components, value))

    def mean(self) -> Tuple[Any, ...]:
        return tuple(c.mean() for c in self.components)

    def variance(self) -> Tuple[Any, ...]:
        return tuple(c.variance() for c in self.components)

    def memory_words(self) -> int:
        return 1 + sum(c.memory_words() for c in self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __repr__(self) -> str:
        return f"TupleDist(arity={len(self.components)})"
