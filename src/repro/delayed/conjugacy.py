"""Conjugacy relationships used by delayed sampling.

A :class:`ConditionalDist` represents a parametric conditional
``p(x | parent)`` for which the three symbolic computations of delayed
sampling (Murray et al. 2018, Section 5.2 of the paper) are closed form:

* ``marginalize``: compute ``p(x)`` from the parent's marginal
  (the paper's lower-level ``marginalize(X, g)``),
* ``posterior``: compute ``p(parent | x = v)`` from the parent's marginal
  and a realized child value (the paper's ``condition(Y, g)``),
* ``at_parent_value``: instantiate ``p(x | parent = v)`` once the parent
  is realized.

Implemented families (the first two cover every benchmark in the paper;
the rest extend coverage to the classic exponential-family pairs):

* linear-Gaussian, scalar:      x | y ~ N(a*y + b, var),  y Gaussian
* linear-Gaussian, multivariate: x | y ~ N(A@y + b, cov), y MvGaussian
* Gaussian projection:          x | y ~ N(a.y + b, var),  y MvGaussian
* Beta-Bernoulli, Beta-Binomial
* Gamma-Poisson
* Dirichlet-Categorical
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.dists import (
    Bernoulli,
    Beta,
    Binomial,
    Categorical,
    Dirichlet,
    Distribution,
    Gamma,
    Gaussian,
    MvGaussian,
    Poisson,
)
from repro.dists.base import require_positive
from repro.errors import GraphError

__all__ = [
    "ConditionalDist",
    "AffineGaussian",
    "MvAffineGaussian",
    "GaussianProjection",
    "BetaBernoulli",
    "BetaBinomial",
    "GammaPoisson",
    "DirichletCategorical",
    "GaussianUnknownVariance",
]


class ConditionalDist(abc.ABC):
    """A conjugate conditional distribution ``p(x | parent)``.

    Instances are immutable; they are stored on *initialized* graph nodes
    and consumed by the graph operations.
    """

    #: family tag the parent's marginal must belong to (e.g. "gaussian").
    parent_family: str = ""
    #: family tag of the child this conditional produces.
    child_family: str = ""

    @abc.abstractmethod
    def marginalize(self, parent_marginal: Distribution) -> Distribution:
        """Marginal ``p(x)`` under the parent's current marginal."""

    @abc.abstractmethod
    def posterior(self, parent_marginal: Distribution, value: Any) -> Distribution:
        """Posterior ``p(parent | x = value)``."""

    @abc.abstractmethod
    def at_parent_value(self, parent_value: Any) -> Distribution:
        """Conditional ``p(x | parent = value)`` for a realized parent."""


class AffineGaussian(ConditionalDist):
    """``x | y ~ N(a*y + b, var)`` with a scalar Gaussian parent.

    The one-dimensional Kalman relationship: ``marginalize`` is the
    prediction step, ``posterior`` the measurement update.
    """

    parent_family = "gaussian"
    child_family = "gaussian"
    __slots__ = ("a", "b", "var")

    def __init__(self, a: float, b: float, var: float):
        self.a = float(a)
        self.b = float(b)
        self.var = float(var)
        if not self.var > 0.0:
            raise GraphError(f"conditional variance must be > 0, got {var!r}")

    def marginalize(self, parent_marginal: Gaussian) -> Gaussian:
        _check(parent_marginal, Gaussian, "AffineGaussian")
        return Gaussian(
            self.a * parent_marginal.mu + self.b,
            self.a * self.a * parent_marginal.var + self.var,
        )

    def posterior(self, parent_marginal: Gaussian, value: float) -> Gaussian:
        _check(parent_marginal, Gaussian, "AffineGaussian")
        mu0, var0 = parent_marginal.mu, parent_marginal.var
        innovation_var = self.a * self.a * var0 + self.var
        gain = var0 * self.a / innovation_var
        residual = float(value) - (self.a * mu0 + self.b)
        post_mu = mu0 + gain * residual
        post_var = (1.0 - gain * self.a) * var0
        return Gaussian(post_mu, max(post_var, 1e-300))

    def at_parent_value(self, parent_value: float) -> Gaussian:
        return Gaussian(self.a * float(parent_value) + self.b, self.var)

    def __repr__(self) -> str:
        return f"AffineGaussian(a={self.a:.4g}, b={self.b:.4g}, var={self.var:.4g})"


class MvAffineGaussian(ConditionalDist):
    """``x | y ~ N(A@y + b, cov)`` with a multivariate Gaussian parent.

    The matrix Kalman relationship used by the robot tracking example.
    """

    parent_family = "mv_gaussian"
    child_family = "mv_gaussian"
    __slots__ = ("a", "b", "cov")

    def __init__(self, a, b, cov):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float).reshape(-1)
        self.cov = np.asarray(cov, dtype=float)
        if self.a.ndim != 2:
            raise GraphError("A must be a matrix")
        if self.cov.shape != (self.a.shape[0], self.a.shape[0]):
            raise GraphError("cov shape does not match A rows")

    def marginalize(self, parent_marginal: MvGaussian) -> MvGaussian:
        _check(parent_marginal, MvGaussian, "MvAffineGaussian")
        mean = self.a @ parent_marginal.mu + self.b
        cov = self.a @ parent_marginal.cov @ self.a.T + self.cov
        return MvGaussian(mean, cov)

    def posterior(self, parent_marginal: MvGaussian, value) -> MvGaussian:
        _check(parent_marginal, MvGaussian, "MvAffineGaussian")
        value = np.asarray(value, dtype=float).reshape(-1)
        mu0, cov0 = parent_marginal.mu, parent_marginal.cov
        innovation_cov = self.a @ cov0 @ self.a.T + self.cov
        gain = cov0 @ self.a.T @ np.linalg.pinv(innovation_cov)
        residual = value - (self.a @ mu0 + self.b)
        post_mu = mu0 + gain @ residual
        identity = np.eye(cov0.shape[0])
        post_cov = (identity - gain @ self.a) @ cov0
        post_cov = 0.5 * (post_cov + post_cov.T)  # re-symmetrize
        return MvGaussian(post_mu, post_cov)

    def at_parent_value(self, parent_value) -> MvGaussian:
        parent_value = np.asarray(parent_value, dtype=float).reshape(-1)
        return MvGaussian(self.a @ parent_value + self.b, self.cov)

    def __repr__(self) -> str:
        return f"MvAffineGaussian(shape={self.a.shape})"


class GaussianProjection(ConditionalDist):
    """Scalar ``x | y ~ N(a . y + b, var)`` with a multivariate parent.

    Covers scalar sensor readings of a vector state: GPS position or
    accelerometer observations in the robot example are one-hot (or
    general row) projections of the latent state vector.
    """

    parent_family = "mv_gaussian"
    child_family = "gaussian"
    __slots__ = ("row", "b", "var")

    def __init__(self, row, b: float, var: float):
        self.row = np.asarray(row, dtype=float).reshape(-1)
        self.b = float(b)
        self.var = float(var)
        if not self.var > 0.0:
            raise GraphError(f"conditional variance must be > 0, got {var!r}")

    def marginalize(self, parent_marginal: MvGaussian) -> Gaussian:
        _check(parent_marginal, MvGaussian, "GaussianProjection")
        mean = float(self.row @ parent_marginal.mu + self.b)
        var = float(self.row @ parent_marginal.cov @ self.row) + self.var
        return Gaussian(mean, var)

    def posterior(self, parent_marginal: MvGaussian, value: float) -> MvGaussian:
        _check(parent_marginal, MvGaussian, "GaussianProjection")
        mu0, cov0 = parent_marginal.mu, parent_marginal.cov
        innovation_var = float(self.row @ cov0 @ self.row) + self.var
        gain = (cov0 @ self.row) / innovation_var
        residual = float(value) - float(self.row @ mu0 + self.b)
        post_mu = mu0 + gain * residual
        post_cov = cov0 - np.outer(gain, self.row @ cov0)
        post_cov = 0.5 * (post_cov + post_cov.T)
        return MvGaussian(post_mu, post_cov)

    def at_parent_value(self, parent_value) -> Gaussian:
        parent_value = np.asarray(parent_value, dtype=float).reshape(-1)
        return Gaussian(float(self.row @ parent_value + self.b), self.var)

    def __repr__(self) -> str:
        return f"GaussianProjection(dim={self.row.size})"


class BetaBernoulli(ConditionalDist):
    """``x | theta ~ Bernoulli(theta)`` with a Beta parent.

    The Coin benchmark's conjugacy (Appendix B.2) and the Outlier
    benchmark's outlier-indicator relationship.
    """

    parent_family = "beta"
    child_family = "bernoulli"
    __slots__ = ()

    def marginalize(self, parent_marginal: Beta) -> Bernoulli:
        _check(parent_marginal, Beta, "BetaBernoulli")
        return Bernoulli(parent_marginal.mean())

    def posterior(self, parent_marginal: Beta, value) -> Beta:
        _check(parent_marginal, Beta, "BetaBernoulli")
        if bool(value):
            return parent_marginal.with_counts(1, 0)
        return parent_marginal.with_counts(0, 1)

    def at_parent_value(self, parent_value: float) -> Bernoulli:
        return Bernoulli(float(parent_value))

    def __repr__(self) -> str:
        return "BetaBernoulli()"


class BetaBinomial(ConditionalDist):
    """``x | theta ~ Binomial(n, theta)`` with a Beta parent."""

    parent_family = "beta"
    child_family = "binomial"
    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = int(n)
        if self.n < 0:
            raise GraphError("n must be non-negative")

    def marginalize(self, parent_marginal: Beta) -> Distribution:
        _check(parent_marginal, Beta, "BetaBinomial")
        return _BetaBinomialMarginal(self.n, parent_marginal.alpha, parent_marginal.beta)

    def posterior(self, parent_marginal: Beta, value) -> Beta:
        _check(parent_marginal, Beta, "BetaBinomial")
        k = int(value)
        return parent_marginal.with_counts(k, self.n - k)

    def at_parent_value(self, parent_value: float) -> Binomial:
        return Binomial(self.n, float(parent_value))

    def __repr__(self) -> str:
        return f"BetaBinomial(n={self.n})"


class _BetaBinomialMarginal(Distribution):
    """Beta-Binomial compound distribution (marginal of BetaBinomial)."""

    __slots__ = ("n", "alpha", "beta")

    def __init__(self, n: int, alpha: float, beta: float):
        self.n = int(n)
        self.alpha = float(alpha)
        self.beta = float(beta)

    def sample(self, rng: np.random.Generator) -> int:
        theta = rng.beta(self.alpha, self.beta)
        return int(rng.binomial(self.n, theta))

    def log_pdf(self, value) -> float:
        import math

        k = int(value)
        if k < 0 or k > self.n:
            return -math.inf
        log_comb = (
            math.lgamma(self.n + 1) - math.lgamma(k + 1) - math.lgamma(self.n - k + 1)
        )
        return (
            log_comb
            + math.lgamma(k + self.alpha)
            + math.lgamma(self.n - k + self.beta)
            - math.lgamma(self.n + self.alpha + self.beta)
            + math.lgamma(self.alpha + self.beta)
            - math.lgamma(self.alpha)
            - math.lgamma(self.beta)
        )

    def mean(self) -> float:
        return self.n * self.alpha / (self.alpha + self.beta)

    def variance(self) -> float:
        a, b, n = self.alpha, self.beta, self.n
        return n * a * b * (a + b + n) / ((a + b) ** 2 * (a + b + 1.0))

    def __repr__(self) -> str:
        return f"BetaBinomialMarginal(n={self.n}, a={self.alpha:.4g}, b={self.beta:.4g})"


class GammaPoisson(ConditionalDist):
    """``x | lam ~ Poisson(lam)`` with a Gamma(shape, rate) parent."""

    parent_family = "gamma"
    child_family = "poisson"
    __slots__ = ()

    def marginalize(self, parent_marginal: Gamma) -> Distribution:
        _check(parent_marginal, Gamma, "GammaPoisson")
        return _NegativeBinomialMarginal(parent_marginal.shape, parent_marginal.rate)

    def posterior(self, parent_marginal: Gamma, value) -> Gamma:
        _check(parent_marginal, Gamma, "GammaPoisson")
        return Gamma(parent_marginal.shape + int(value), parent_marginal.rate + 1.0)

    def at_parent_value(self, parent_value: float) -> Poisson:
        return Poisson(float(parent_value))

    def __repr__(self) -> str:
        return "GammaPoisson()"


class _NegativeBinomialMarginal(Distribution):
    """Gamma-Poisson compound (negative binomial) marginal."""

    __slots__ = ("shape", "rate")

    def __init__(self, shape: float, rate: float):
        self.shape = require_positive("shape", shape)
        self.rate = require_positive("rate", rate)

    def sample(self, rng: np.random.Generator) -> int:
        lam = rng.gamma(self.shape, 1.0 / self.rate)
        return int(rng.poisson(lam))

    def log_pdf(self, value) -> float:
        import math

        k = int(value)
        if k < 0:
            return -math.inf
        r = self.shape
        p = self.rate / (self.rate + 1.0)  # success prob of the NB
        return (
            math.lgamma(k + r)
            - math.lgamma(r)
            - math.lgamma(k + 1)
            + r * math.log(p)
            + k * math.log(1.0 - p)
        )

    def mean(self) -> float:
        return self.shape / self.rate

    def variance(self) -> float:
        return self.shape * (self.rate + 1.0) / (self.rate * self.rate)

    def __repr__(self) -> str:
        return f"NegativeBinomialMarginal(r={self.shape:.4g}, rate={self.rate:.4g})"


class DirichletCategorical(ConditionalDist):
    """``x | p ~ Categorical(p)`` with a Dirichlet parent."""

    parent_family = "dirichlet"
    child_family = "categorical"
    __slots__ = ()

    def marginalize(self, parent_marginal: Dirichlet) -> Categorical:
        _check(parent_marginal, Dirichlet, "DirichletCategorical")
        return Categorical(parent_marginal.mean())

    def posterior(self, parent_marginal: Dirichlet, value) -> Dirichlet:
        _check(parent_marginal, Dirichlet, "DirichletCategorical")
        return parent_marginal.with_count(int(value))

    def at_parent_value(self, parent_value) -> Categorical:
        return Categorical(np.asarray(parent_value, dtype=float))

    def __repr__(self) -> str:
        return "DirichletCategorical()"


class GaussianUnknownVariance(ConditionalDist):
    """``x | sigma2 ~ N(mu, sigma2)`` with an InverseGamma parent.

    Marginal: location-scale Student-t with ``2*shape`` degrees of
    freedom. Posterior: ``InverseGamma(shape + 1/2, scale + (x-mu)^2/2)``.
    An extension beyond the paper's evaluated conjugacies; lets models
    learn observation noise from a stream.
    """

    parent_family = "inverse_gamma"
    child_family = "gaussian"
    __slots__ = ("mu",)

    def __init__(self, mu: float):
        self.mu = float(mu)

    def marginalize(self, parent_marginal) -> Distribution:
        from repro.dists import InverseGamma, StudentT

        _check(parent_marginal, InverseGamma, "GaussianUnknownVariance")
        shape, scale = parent_marginal.shape, parent_marginal.scale
        return StudentT(
            df=2.0 * shape,
            loc=self.mu,
            scale=float(np.sqrt(scale / shape)),
        )

    def posterior(self, parent_marginal, value):
        from repro.dists import InverseGamma

        _check(parent_marginal, InverseGamma, "GaussianUnknownVariance")
        residual = float(value) - self.mu
        return parent_marginal.with_observation_sq(residual * residual)

    def at_parent_value(self, parent_value: float) -> Gaussian:
        return Gaussian(self.mu, float(parent_value))

    def __repr__(self) -> str:
        return f"GaussianUnknownVariance(mu={self.mu:.4g})"


def _check(marginal: Distribution, expected: type, who: str) -> None:
    if not isinstance(marginal, expected):
        raise GraphError(
            f"{who} expects a {expected.__name__} parent marginal, "
            f"got {type(marginal).__name__}"
        )
