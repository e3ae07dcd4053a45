"""Structure-of-arrays posterior representations.

The scalar engines report an :class:`~repro.dists.Empirical` (PF) or a
:class:`~repro.dists.Mixture` of per-particle marginals (SDS). Building
those from a vectorized step would allocate ``n`` Python objects and
reintroduce the interpreter loop the backend exists to avoid, so the
vectorized engines report these array-backed equivalents instead: the
same :class:`~repro.dists.Distribution` interface, with moments and
scores computed by array reductions.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.dists import Beta, Dirichlet, Gamma, Gaussian, MvGaussian, Poisson
from repro.dists.base import Distribution
from repro.dists.mixture import zero_nan_weights
from repro.dists.mv_gaussian import batched_mv_log_pdf
from repro.errors import DistributionError

__all__ = [
    "ArrayEmpirical",
    "GaussianMixtureArray",
    "MvGaussianMixtureArray",
    "BetaMixtureArray",
    "GammaMixtureArray",
    "DirichletMixtureArray",
    "CountMixtureArray",
]

_LOG_2PI = math.log(2.0 * math.pi)


def _normalize_weights(weights, size: int) -> np.ndarray:
    if weights is None:
        return np.full(size, 1.0 / size)
    weights = np.asarray(weights, dtype=float)
    if weights.size != size:
        raise DistributionError("values and weights must have equal length")
    weights = zero_nan_weights(weights, stacklevel=4)
    if np.any(weights < 0):
        raise DistributionError("weights must be non-negative")
    total = weights.sum()
    if not total > 0:
        raise DistributionError("weights must not all be zero")
    return weights / total


class ArrayEmpirical(Distribution):
    """Weighted empirical distribution over a stacked value array.

    The vectorized counterpart of :class:`~repro.dists.Empirical`:
    ``values`` is one array whose leading axis indexes particles (scalar
    support gives a vector, vector support an ``(n, d)`` matrix).
    """

    __slots__ = ("values", "weights")

    def __init__(self, values, weights=None):
        # Copy before freezing: callers (the engines) pass arrays that
        # alias the live batch state, which must stay writeable.
        values = np.array(values)
        if values.ndim == 0 or values.shape[0] == 0:
            raise DistributionError("empirical distribution needs at least one value")
        self.values = values
        self.weights = _normalize_weights(weights, values.shape[0])
        self.values.setflags(write=False)
        self.weights.setflags(write=False)

    def sample(self, rng: np.random.Generator) -> Any:
        idx = int(rng.choice(self.weights.size, p=self.weights))
        return self.values[idx]

    def log_pdf(self, value: Any) -> float:
        if self.values.ndim == 1:
            mass = float(self.weights[self.values == value].sum())
        else:
            hits = np.all(self.values == np.asarray(value), axis=tuple(range(1, self.values.ndim)))
            mass = float(self.weights[hits].sum())
        return math.log(mass) if mass > 0 else -math.inf

    def mean(self) -> Any:
        axes = (1,) * (self.values.ndim - 1)
        acc = np.sum(self.weights.reshape((-1,) + axes) * self.values, axis=0)
        return float(acc) if acc.ndim == 0 else acc

    def variance(self) -> Any:
        mean = self.mean()
        diff = self.values - mean
        axes = (1,) * (self.values.ndim - 1)
        acc = np.sum(self.weights.reshape((-1,) + axes) * diff * diff, axis=0)
        return float(acc) if acc.ndim == 0 else acc

    def cdf(self, x: float) -> float:
        """P(X <= x); used by :func:`repro.dists.stats.cdf`."""
        if self.values.ndim != 1:
            raise DistributionError("cdf needs scalar support values")
        return float(self.weights[self.values <= float(x)].sum())

    def memory_words(self) -> int:
        return 2 + int(self.values.size) + self.weights.size

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __repr__(self) -> str:
        return f"ArrayEmpirical(n={len(self)})"


class GaussianMixtureArray(Distribution):
    """Mixture of ``n`` Gaussians stored as mean/variance/weight vectors.

    The vectorized counterpart of the SDS output (a
    :class:`~repro.dists.Mixture` of per-particle Gaussian marginals):
    each particle contributes one component, and every query is an array
    reduction over the component vectors.
    """

    __slots__ = ("mus", "vars", "weights")

    def __init__(self, mus, variances, weights=None):
        # Copies, not views: the engines pass the live posterior arrays.
        mus = np.array(mus, dtype=float).reshape(-1)
        variances = np.array(variances, dtype=float).reshape(-1)
        if mus.size == 0 or variances.size != mus.size:
            raise DistributionError("need matching non-empty mean/variance vectors")
        if np.any(variances <= 0):
            raise DistributionError("component variances must be > 0")
        self.mus = mus
        self.vars = variances
        self.weights = _normalize_weights(weights, mus.size)
        self.mus.setflags(write=False)
        self.vars.setflags(write=False)
        self.weights.setflags(write=False)

    def sample(self, rng: np.random.Generator) -> float:
        idx = int(rng.choice(self.weights.size, p=self.weights))
        return rng.normal(self.mus[idx], math.sqrt(self.vars[idx]))

    def log_pdf(self, value: float) -> float:
        diff = float(value) - self.mus
        logs = -0.5 * (_LOG_2PI + np.log(self.vars) + diff * diff / self.vars)
        with np.errstate(divide="ignore"):
            terms = np.where(self.weights > 0, np.log(np.maximum(self.weights, 1e-300)), -np.inf) + logs
        top = terms.max()
        if top == -np.inf:
            return -math.inf
        return float(top + np.log(np.sum(np.exp(terms - top))))

    def mean(self) -> float:
        return float(np.dot(self.weights, self.mus))

    def variance(self) -> float:
        # Law of total variance over the components.
        mean = self.mean()
        diff = self.mus - mean
        return float(np.dot(self.weights, self.vars + diff * diff))

    def cdf(self, x: float) -> float:
        """P(X <= x); used by :func:`repro.dists.stats.cdf`."""
        z = (float(x) - self.mus) / np.sqrt(2.0 * self.vars)
        # math.erf is scalar-only and NumPy has no erf; the loop runs
        # once per control-path query, not per inference step.
        phis = np.array([0.5 * (1.0 + math.erf(v)) for v in z])
        return float(np.dot(self.weights, phis))

    def component(self, i: int) -> Gaussian:
        """The ``i``-th component as a scalar Gaussian object."""
        return Gaussian(self.mus[i], self.vars[i])

    def memory_words(self) -> int:
        return 2 + 3 * self.mus.size

    def __len__(self) -> int:
        return int(self.mus.size)

    def __repr__(self) -> str:
        return f"GaussianMixtureArray(n={len(self)})"


class MvGaussianMixtureArray(Distribution):
    """Mixture of ``n`` multivariate Gaussians with a *shared* covariance.

    The vectorized counterpart of the SDS output on multivariate
    Gaussian chains (the robot tracker): every particle contributes one
    ``N(mean_i, cov)`` component. Covariances are shared because the
    Gaussian-chain arithmetic never feeds realized values into the
    covariance recursion — the same invariant the batched graph exploits
    — so the whole posterior is one ``(n, d)`` mean matrix plus one
    ``(d, d)`` matrix.
    """

    __slots__ = ("means", "cov", "weights")

    def __init__(self, means, cov, weights=None):
        # Copies, not views: the engines pass the live posterior arrays.
        means = np.array(means, dtype=float)
        cov = np.array(cov, dtype=float)
        if means.ndim != 2 or means.shape[0] == 0:
            raise DistributionError("need a non-empty (n, d) mean matrix")
        if cov.shape != (means.shape[1], means.shape[1]):
            raise DistributionError(
                f"cov shape {cov.shape} does not match mean dim {means.shape[1]}"
            )
        self.means = means
        self.cov = cov
        self.weights = _normalize_weights(weights, means.shape[0])
        self.means.setflags(write=False)
        self.cov.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.means.shape[1])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        idx = int(rng.choice(self.weights.size, p=self.weights))
        return rng.multivariate_normal(self.means[idx], self.cov, method="svd")

    def log_pdf(self, value) -> float:
        logs = batched_mv_log_pdf(value, self.means, self.cov)
        with np.errstate(divide="ignore"):
            terms = np.where(
                self.weights > 0,
                np.log(np.maximum(self.weights, 1e-300)),
                -np.inf,
            ) + logs
        top = terms.max()
        if top == -np.inf:
            return -math.inf
        return float(top + np.log(np.sum(np.exp(terms - top))))

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def variance(self) -> np.ndarray:
        # Law of total variance: shared within-component covariance plus
        # the between-component spread of the means.
        diff = self.means - self.mean()
        return self.cov + (self.weights[:, None] * diff).T @ diff

    def component(self, i: int) -> MvGaussian:
        """The ``i``-th component as a scalar MvGaussian object."""
        return MvGaussian(self.means[i], self.cov)

    def memory_words(self) -> int:
        return 2 + int(self.means.size) + int(self.cov.size) + self.weights.size

    def __len__(self) -> int:
        return int(self.means.shape[0])

    def __repr__(self) -> str:
        return f"MvGaussianMixtureArray(n={len(self)}, dim={self.dim})"


class BetaMixtureArray(Distribution):
    """Mixture of ``n`` Beta components stored as parameter vectors.

    The vectorized counterpart of the SDS output on Beta-Bernoulli
    models (a :class:`~repro.dists.Mixture` of per-particle Beta
    marginals): each particle contributes one ``Beta(alpha_i, beta_i)``
    component, and moments are array reductions over the parameter
    vectors.
    """

    __slots__ = ("alphas", "betas", "weights", "_log_norm")

    def __init__(self, alphas, betas, weights=None):
        # Copies, not views: the engines pass the live posterior arrays.
        alphas = np.array(alphas, dtype=float).reshape(-1)
        betas = np.array(betas, dtype=float).reshape(-1)
        if alphas.size == 0 or betas.size != alphas.size:
            raise DistributionError("need matching non-empty alpha/beta vectors")
        if np.any(alphas <= 0) or np.any(betas <= 0):
            raise DistributionError("component parameters must be > 0")
        self.alphas = alphas
        self.betas = betas
        self.weights = _normalize_weights(weights, alphas.size)
        # NumPy has no lgamma ufunc; the Python-loop normalizer is paid
        # once here, not on every log_pdf query.
        lgamma = np.vectorize(math.lgamma, otypes=[float])
        self._log_norm = (
            lgamma(alphas + betas) - lgamma(alphas) - lgamma(betas)
        )
        self.alphas.setflags(write=False)
        self.betas.setflags(write=False)
        self.weights.setflags(write=False)

    def sample(self, rng: np.random.Generator) -> float:
        idx = int(rng.choice(self.weights.size, p=self.weights))
        return float(rng.beta(self.alphas[idx], self.betas[idx]))

    def log_pdf(self, value: float) -> float:
        value = float(value)
        if not 0.0 < value < 1.0:
            return -math.inf
        logs = (
            self._log_norm
            + (self.alphas - 1.0) * math.log(value)
            + (self.betas - 1.0) * math.log1p(-value)
        )
        with np.errstate(divide="ignore"):
            terms = np.where(
                self.weights > 0,
                np.log(np.maximum(self.weights, 1e-300)),
                -np.inf,
            ) + logs
        top = terms.max()
        if top == -np.inf:
            return -math.inf
        return float(top + np.log(np.sum(np.exp(terms - top))))

    def mean(self) -> float:
        return float(np.dot(self.weights, self.alphas / (self.alphas + self.betas)))

    def variance(self) -> float:
        # Law of total variance over the components.
        total = self.alphas + self.betas
        means = self.alphas / total
        component_vars = self.alphas * self.betas / (total * total * (total + 1.0))
        mean = float(np.dot(self.weights, means))
        diff = means - mean
        return float(np.dot(self.weights, component_vars + diff * diff))

    def component(self, i: int) -> Beta:
        """The ``i``-th component as a scalar Beta object."""
        return Beta(self.alphas[i], self.betas[i])

    def memory_words(self) -> int:
        return 2 + 3 * self.alphas.size

    def __len__(self) -> int:
        return int(self.alphas.size)

    def __repr__(self) -> str:
        return f"BetaMixtureArray(n={len(self)})"


class GammaMixtureArray(Distribution):
    """Mixture of ``n`` Gamma components stored as parameter vectors.

    The vectorized counterpart of the SDS output on Gamma-Poisson
    models (count-data streams): each particle contributes one
    ``Gamma(shape_i, rate_i)`` component, and moments are array
    reductions over the parameter vectors.
    """

    __slots__ = ("shapes", "rates", "weights", "_log_norm")

    def __init__(self, shapes, rates, weights=None):
        # Copies, not views: the engines pass the live posterior arrays.
        shapes = np.array(shapes, dtype=float).reshape(-1)
        rates = np.array(rates, dtype=float).reshape(-1)
        if shapes.size == 0 or rates.size != shapes.size:
            raise DistributionError("need matching non-empty shape/rate vectors")
        if np.any(shapes <= 0) or np.any(rates <= 0):
            raise DistributionError("component parameters must be > 0")
        self.shapes = shapes
        self.rates = rates
        self.weights = _normalize_weights(weights, shapes.size)
        # NumPy has no lgamma ufunc; the Python-loop normalizer is paid
        # once here, not on every log_pdf query.
        lgamma = np.vectorize(math.lgamma, otypes=[float])
        self._log_norm = shapes * np.log(rates) - lgamma(shapes)
        self.shapes.setflags(write=False)
        self.rates.setflags(write=False)
        self.weights.setflags(write=False)

    def sample(self, rng: np.random.Generator) -> float:
        idx = int(rng.choice(self.weights.size, p=self.weights))
        return float(rng.gamma(self.shapes[idx], 1.0 / self.rates[idx]))

    def log_pdf(self, value: float) -> float:
        value = float(value)
        if not value > 0.0:
            return -math.inf
        logs = (
            self._log_norm
            + (self.shapes - 1.0) * math.log(value)
            - self.rates * value
        )
        with np.errstate(divide="ignore"):
            terms = np.where(
                self.weights > 0,
                np.log(np.maximum(self.weights, 1e-300)),
                -np.inf,
            ) + logs
        top = terms.max()
        if top == -np.inf:
            return -math.inf
        return float(top + np.log(np.sum(np.exp(terms - top))))

    def mean(self) -> float:
        return float(np.dot(self.weights, self.shapes / self.rates))

    def variance(self) -> float:
        # Law of total variance over the components.
        means = self.shapes / self.rates
        component_vars = self.shapes / (self.rates * self.rates)
        mean = float(np.dot(self.weights, means))
        diff = means - mean
        return float(np.dot(self.weights, component_vars + diff * diff))

    def component(self, i: int) -> Gamma:
        """The ``i``-th component as a scalar Gamma object."""
        return Gamma(self.shapes[i], self.rates[i])

    def memory_words(self) -> int:
        return 2 + 3 * self.shapes.size

    def __len__(self) -> int:
        return int(self.shapes.size)

    def __repr__(self) -> str:
        return f"GammaMixtureArray(n={len(self)})"


class DirichletMixtureArray(Distribution):
    """Mixture of ``n`` Dirichlet components over a shared ``k``-simplex.

    The vectorized counterpart of the SDS output on
    Dirichlet-Categorical models (topic/proportion streams): each
    particle contributes one ``Dirichlet(alpha_i)`` component, stored
    as one ``(n, k)`` concentration matrix.
    """

    __slots__ = ("alphas", "weights")

    def __init__(self, alphas, weights=None):
        # Copies, not views: the engines pass the live posterior arrays.
        alphas = np.array(alphas, dtype=float)
        if alphas.ndim != 2 or alphas.shape[0] == 0 or alphas.shape[1] < 2:
            raise DistributionError("need a non-empty (n, k>=2) alpha matrix")
        if np.any(alphas <= 0):
            raise DistributionError("concentration parameters must be > 0")
        self.alphas = alphas
        self.weights = _normalize_weights(weights, alphas.shape[0])
        self.alphas.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.alphas.shape[1])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        idx = int(rng.choice(self.weights.size, p=self.weights))
        return rng.dirichlet(self.alphas[idx])

    def log_pdf(self, value) -> float:
        from repro.vectorized.kernels import dirichlet_log_prob

        value = np.asarray(value, dtype=float)
        logs = dirichlet_log_prob(
            np.broadcast_to(value, self.alphas.shape), self.alphas
        )
        with np.errstate(divide="ignore"):
            terms = np.where(
                self.weights > 0,
                np.log(np.maximum(self.weights, 1e-300)),
                -np.inf,
            ) + logs
        top = terms.max()
        if top == -np.inf:
            return -math.inf
        return float(top + np.log(np.sum(np.exp(terms - top))))

    def mean(self) -> np.ndarray:
        means = self.alphas / self.alphas.sum(axis=1, keepdims=True)
        return self.weights @ means

    def variance(self) -> np.ndarray:
        # Law of total variance, per coordinate.
        totals = self.alphas.sum(axis=1, keepdims=True)
        means = self.alphas / totals
        component_vars = means * (1.0 - means) / (totals + 1.0)
        mean = self.weights @ means
        diff = means - mean
        return self.weights @ (component_vars + diff * diff)

    def component(self, i: int) -> Dirichlet:
        """The ``i``-th component as a scalar Dirichlet object."""
        return Dirichlet(self.alphas[i])

    def memory_words(self) -> int:
        return 2 + int(self.alphas.size) + self.weights.size

    def __len__(self) -> int:
        return int(self.alphas.shape[0])

    def __repr__(self) -> str:
        return f"DirichletMixtureArray(n={len(self)}, dim={self.dim})"


class CountMixtureArray(Distribution):
    """Mixture of ``n`` count components: Poisson or negative binomial.

    The vectorized counterpart of the SDS output when a Poisson slot is
    itself the reported variable. With ``rates is None`` every component
    is ``Poisson(p0_i)``; otherwise component ``i`` is the Gamma-Poisson
    marginal ``NB(r=p0_i, p=rate_i/(rate_i+1))`` — the same
    parameterization as the batched "poisson" slot family.
    """

    __slots__ = ("p0", "rates", "weights")

    def __init__(self, p0, rates=None, weights=None):
        # Copies, not views: the engines pass the live posterior arrays.
        p0 = np.array(p0, dtype=float).reshape(-1)
        if p0.size == 0:
            raise DistributionError("need a non-empty parameter vector")
        if np.any(p0 <= 0):
            raise DistributionError("component parameters must be > 0")
        if rates is not None:
            rates = np.array(rates, dtype=float).reshape(-1)
            if rates.size != p0.size:
                raise DistributionError("need matching shape/rate vectors")
            if np.any(rates <= 0):
                raise DistributionError("component rates must be > 0")
            rates.setflags(write=False)
        self.p0 = p0
        self.rates = rates
        self.weights = _normalize_weights(weights, p0.size)
        self.p0.setflags(write=False)
        self.weights.setflags(write=False)

    def sample(self, rng: np.random.Generator) -> int:
        idx = int(rng.choice(self.weights.size, p=self.weights))
        lam = self.p0[idx]
        if self.rates is not None:
            lam = rng.gamma(self.p0[idx], 1.0 / self.rates[idx])
        return int(rng.poisson(lam))

    def _component_logs(self, value) -> np.ndarray:
        from repro.vectorized.kernels import (
            neg_binomial_log_prob,
            poisson_log_prob,
        )

        if self.rates is None:
            return poisson_log_prob(value, self.p0)
        return neg_binomial_log_prob(value, self.p0, self.rates)

    def log_pdf(self, value) -> float:
        logs = self._component_logs(float(value))
        with np.errstate(divide="ignore"):
            terms = np.where(
                self.weights > 0,
                np.log(np.maximum(self.weights, 1e-300)),
                -np.inf,
            ) + logs
        top = terms.max()
        if top == -np.inf:
            return -math.inf
        return float(top + np.log(np.sum(np.exp(terms - top))))

    def _component_means(self) -> np.ndarray:
        if self.rates is None:
            return self.p0
        return self.p0 / self.rates

    def mean(self) -> float:
        return float(np.dot(self.weights, self._component_means()))

    def variance(self) -> float:
        # Law of total variance over the components.
        means = self._component_means()
        if self.rates is None:
            component_vars = self.p0
        else:
            component_vars = means * (self.rates + 1.0) / self.rates
        mean = float(np.dot(self.weights, means))
        diff = means - mean
        return float(np.dot(self.weights, component_vars + diff * diff))

    def component(self, i: int) -> Poisson:
        """The ``i``-th component as a scalar distribution object."""
        if self.rates is None:
            return Poisson(self.p0[i])
        from repro.delayed.conjugacy import _NegativeBinomialMarginal

        return _NegativeBinomialMarginal(self.p0[i], self.rates[i])

    def memory_words(self) -> int:
        words = 2 + 2 * self.p0.size
        return words + (0 if self.rates is None else int(self.rates.size))

    def __len__(self) -> int:
        return int(self.p0.size)

    def __repr__(self) -> str:
        kind = "poisson" if self.rates is None else "neg-binomial"
        return f"CountMixtureArray(n={len(self)}, kind={kind})"

