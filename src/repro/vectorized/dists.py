"""Structure-of-arrays posterior representations.

The scalar engines report an :class:`~repro.dists.Empirical` (PF) or a
:class:`~repro.dists.Mixture` of per-particle marginals (SDS). Building
those from a vectorized step would allocate ``n`` Python objects and
reintroduce the interpreter loop the backend exists to avoid, so the
vectorized engines report these array-backed equivalents instead: the
same :class:`~repro.dists.Distribution` interface, with moments and
scores computed by array reductions.

Every class here derives from one private base, :class:`_ArrayPosterior`,
which holds the ``weights`` vector (one entry per particle or component)
and applies the rules the outputs share:

* A constructor stores *copies* of its parameter arrays, not views: the
  engines pass arrays that alias their live batch state, which must stay
  writeable. It rejects what ``component(i)`` would reject: a parameter
  that is not ``> 0`` (one ``min`` per array, so NaN fails too) and an
  asymmetric covariance.
* Weights go through :func:`repro.dists.base.normalize_weights`, the one
  weight rule of every posterior (a NaN weight becomes zero, loudly);
  ``None`` means uniform weights.
* The copies and the weights are frozen (read-only), also after
  unpickling, so an output cannot be changed in place, and a cached
  normalizer cannot go stale.
* ``sample`` picks a component by weight and draws from it, ``log_pdf``
  is the weighted log-sum-exp of the component log-densities, and
  ``variance`` is the law of total variance over the component moments.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, Tuple

import numpy as np

from repro.dists import Beta, Dirichlet, Gamma, Gaussian, MvGaussian, Poisson
from repro.dists.base import Distribution, normalize_weights
from repro.dists.mv_gaussian import batched_mv_log_pdf, require_symmetric
from repro.errors import DistributionError
from repro.vectorized.kernels import (
    _lgamma,
    dirichlet_log_prob,
    gaussian_log_prob,
    neg_binomial_log_prob,
    poisson_log_prob,
)

__all__ = [
    "ArrayEmpirical",
    "GaussianMixtureArray",
    "MvGaussianMixtureArray",
    "BetaMixtureArray",
    "GammaMixtureArray",
    "DirichletMixtureArray",
    "CountMixtureArray",
]


class _ArrayPosterior(Distribution):
    """The weights and the array rules shared by every output below.

    A subclass copies its parameter arrays into the attributes named by
    ``_arrays``, then calls :meth:`_seal`. It supplies ``log_pdf`` (through
    :meth:`_mix`), ``mean``, ``component(i)`` and, for the law of total
    variance, ``_moments``.
    """

    __slots__ = ("weights",)

    #: attribute names of the parameter arrays (``None`` allowed), which
    #: are frozen with the weights and counted by :meth:`memory_words`
    _arrays: Tuple[str, ...] = ()
    #: attributes that ``repr`` shows after the component count
    _repr_fields: Tuple[str, ...] = ()

    def _seal(self, weights, size: int) -> None:
        """Store the normalized weights and freeze every array."""
        if weights is None:
            weights = np.full(size, 1.0 / size)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.size != size:
                raise DistributionError("values and weights must have equal length")
            # A NaN warning names the caller of the subclass constructor.
            weights = normalize_weights(weights, stacklevel=4)
        self.weights = weights
        self._freeze()

    def _parameters(self) -> Iterator[np.ndarray]:
        yield self.weights
        for name in self._arrays:
            array = getattr(self, name)
            if array is not None:
                yield array

    def _freeze(self) -> None:
        for array in self._parameters():
            array.setflags(write=False)

    def __setstate__(self, state) -> None:
        # A slotted object pickles as (None, {slot: value}), and its
        # arrays come back writeable.
        for name, value in state[1].items():
            setattr(self, name, value)
        self._freeze()

    def _draw(self, rng: np.random.Generator) -> int:
        """A component index drawn by weight."""
        return int(rng.choice(self.weights.size, p=self.weights))

    def sample(self, rng: np.random.Generator) -> Any:
        return self.component(self._draw(rng)).sample(rng)

    def _mix(self, logs: np.ndarray) -> float:
        """``log sum_i w_i exp(logs_i)``; a zero weight drops its component."""
        with np.errstate(divide="ignore"):
            terms = np.log(self.weights) + logs
        top = terms.max()
        if top == -np.inf:
            return -math.inf
        return float(top + np.log(np.sum(np.exp(terms - top))))

    def variance(self) -> Any:
        # Law of total variance (per coordinate for vector components):
        # the mean component variance plus the spread of the means.
        means, variances = self._moments()
        diff = means - self.weights @ means
        total = self.weights @ (variances + diff * diff)
        return float(total) if total.ndim == 0 else total

    def memory_words(self) -> int:
        return 2 + sum(int(array.size) for array in self._parameters())

    def __len__(self) -> int:
        return int(self.weights.size)

    def __repr__(self) -> str:
        fields = "".join(f", {f}={getattr(self, f)}" for f in self._repr_fields)
        return f"{type(self).__name__}(n={len(self)}{fields})"


class ArrayEmpirical(_ArrayPosterior):
    """Weighted empirical distribution over a stacked value array.

    The vectorized counterpart of :class:`~repro.dists.Empirical`:
    ``values`` is one array whose leading axis indexes particles (scalar
    support gives a vector, vector support an ``(n, d)`` matrix).
    """

    __slots__ = _arrays = ("values",)

    def __init__(self, values, weights=None):
        values = np.array(values)
        if values.ndim == 0 or values.shape[0] == 0:
            raise DistributionError("empirical distribution needs at least one value")
        self.values = values
        self._seal(weights, values.shape[0])

    def sample(self, rng: np.random.Generator) -> Any:
        return self.values[self._draw(rng)]

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


class GaussianMixtureArray(_ArrayPosterior):
    """Mixture of ``n`` Gaussians stored as mean/variance/weight vectors.

    The vectorized counterpart of the SDS output (a
    :class:`~repro.dists.Mixture` of per-particle Gaussian marginals).
    """

    __slots__ = _arrays = ("mus", "vars")

    def __init__(self, mus, variances, weights=None):
        mus = np.array(mus, dtype=float).reshape(-1)
        variances = np.array(variances, dtype=float).reshape(-1)
        if mus.size == 0 or variances.size != mus.size:
            raise DistributionError("need matching non-empty mean/variance vectors")
        if not variances.min() > 0:
            raise DistributionError("component variances must be > 0")
        self.mus = mus
        self.vars = variances
        self._seal(weights, mus.size)

    def log_pdf(self, value: float) -> float:
        return self._mix(gaussian_log_prob(float(value), self.mus, self.vars))

    def mean(self) -> float:
        return float(np.dot(self.weights, self.mus))

    def _moments(self):
        return self.mus, self.vars

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


class MvGaussianMixtureArray(_ArrayPosterior):
    """Mixture of ``n`` multivariate Gaussians with a *shared* covariance.

    The vectorized counterpart of the SDS output on multivariate
    Gaussian chains (the robot tracker): every particle contributes one
    ``N(mean_i, cov)`` component. Covariances are shared because the
    Gaussian-chain arithmetic never feeds realized values into the
    covariance recursion, so the whole posterior is one ``(n, d)`` mean
    matrix plus one ``(d, d)`` matrix.
    """

    __slots__ = _arrays = ("means", "cov")
    _repr_fields = ("dim",)

    def __init__(self, means, cov, weights=None):
        means = np.array(means, dtype=float)
        cov = np.array(cov, dtype=float)
        if means.ndim != 2 or means.shape[0] == 0:
            raise DistributionError("need a non-empty (n, d) mean matrix")
        if cov.shape != (means.shape[1], means.shape[1]):
            raise DistributionError(
                f"cov shape {cov.shape} does not match mean dim {means.shape[1]}"
            )
        require_symmetric(cov)
        self.means = means
        self.cov = cov
        self._seal(weights, means.shape[0])

    @property
    def dim(self) -> int:
        return int(self.means.shape[1])

    def log_pdf(self, value) -> float:
        return self._mix(batched_mv_log_pdf(value, self.means, self.cov))

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


class BetaMixtureArray(_ArrayPosterior):
    """Mixture of ``n`` ``Beta(alpha_i, beta_i)`` components.

    The vectorized counterpart of the SDS output on Beta-Bernoulli
    models (a :class:`~repro.dists.Mixture` of per-particle Beta
    marginals).
    """

    _arrays = ("alphas", "betas")
    __slots__ = _arrays + ("_log_norm",)

    def __init__(self, alphas, betas, weights=None):
        alphas = np.array(alphas, dtype=float).reshape(-1)
        betas = np.array(betas, dtype=float).reshape(-1)
        if alphas.size == 0 or betas.size != alphas.size:
            raise DistributionError("need matching non-empty alpha/beta vectors")
        if not (alphas.min() > 0 and betas.min() > 0):
            raise DistributionError("component parameters must be > 0")
        self.alphas = alphas
        self.betas = betas
        # NumPy has no lgamma ufunc, so the normalizer is a Python loop
        # over the components. Only log_pdf reads it: the first query
        # computes it and later ones reuse it, and a posterior that is
        # only asked for its moments never pays for it.
        self._log_norm = None
        self._seal(weights, alphas.size)

    def log_pdf(self, value: float) -> float:
        value = float(value)
        if not 0.0 < value < 1.0:
            return -math.inf
        alphas, betas = self.alphas, self.betas
        if self._log_norm is None:
            self._log_norm = _lgamma(alphas + betas) - _lgamma(alphas) - _lgamma(betas)
        return self._mix(
            self._log_norm
            + (alphas - 1.0) * math.log(value)
            + (betas - 1.0) * math.log1p(-value)
        )

    def mean(self) -> float:
        return float(np.dot(self.weights, self.alphas / (self.alphas + self.betas)))

    def _moments(self):
        total = self.alphas + self.betas
        variances = self.alphas * self.betas / (total * total * (total + 1.0))
        return self.alphas / total, variances

    def component(self, i: int) -> Beta:
        """The ``i``-th component as a scalar Beta object."""
        return Beta(self.alphas[i], self.betas[i])


class GammaMixtureArray(_ArrayPosterior):
    """Mixture of ``n`` ``Gamma(shape_i, rate_i)`` components.

    The vectorized counterpart of the SDS output on Gamma-Poisson
    models (count-data streams).
    """

    _arrays = ("shapes", "rates")
    __slots__ = _arrays + ("_log_norm",)

    def __init__(self, shapes, rates, weights=None):
        shapes = np.array(shapes, dtype=float).reshape(-1)
        rates = np.array(rates, dtype=float).reshape(-1)
        if shapes.size == 0 or rates.size != shapes.size:
            raise DistributionError("need matching non-empty shape/rate vectors")
        if not (shapes.min() > 0 and rates.min() > 0):
            raise DistributionError("component parameters must be > 0")
        self.shapes = shapes
        self.rates = rates
        # Computed by the first log_pdf query, as for BetaMixtureArray.
        self._log_norm = None
        self._seal(weights, shapes.size)

    def log_pdf(self, value: float) -> float:
        value = float(value)
        if not value > 0.0:
            return -math.inf
        if self._log_norm is None:
            self._log_norm = self.shapes * np.log(self.rates) - _lgamma(self.shapes)
        return self._mix(
            self._log_norm + (self.shapes - 1.0) * math.log(value) - self.rates * value
        )

    def mean(self) -> float:
        return float(np.dot(self.weights, self.shapes / self.rates))

    def _moments(self):
        return self.shapes / self.rates, self.shapes / (self.rates * self.rates)

    def component(self, i: int) -> Gamma:
        """The ``i``-th component as a scalar Gamma object."""
        return Gamma(self.shapes[i], self.rates[i])


class DirichletMixtureArray(_ArrayPosterior):
    """Mixture of ``n`` Dirichlet components over a shared ``k``-simplex.

    The vectorized counterpart of the SDS output on
    Dirichlet-Categorical models: each particle contributes one
    ``Dirichlet(alpha_i)`` component, a row of one ``(n, k)``
    concentration matrix.
    """

    __slots__ = _arrays = ("alphas",)
    _repr_fields = ("dim",)

    def __init__(self, alphas, weights=None):
        alphas = np.array(alphas, dtype=float)
        if alphas.ndim != 2 or alphas.shape[0] == 0 or alphas.shape[1] < 2:
            raise DistributionError("need a non-empty (n, k>=2) alpha matrix")
        if not alphas.min() > 0:
            raise DistributionError("concentration parameters must be > 0")
        self.alphas = alphas
        self._seal(weights, alphas.shape[0])

    @property
    def dim(self) -> int:
        return int(self.alphas.shape[1])

    def log_pdf(self, value) -> float:
        value = np.asarray(value, dtype=float)
        return self._mix(
            dirichlet_log_prob(np.broadcast_to(value, self.alphas.shape), self.alphas)
        )

    def mean(self) -> np.ndarray:
        means = self.alphas / self.alphas.sum(axis=1, keepdims=True)
        return self.weights @ means

    def _moments(self):
        totals = self.alphas.sum(axis=1, keepdims=True)
        means = self.alphas / totals
        return means, means * (1.0 - means) / (totals + 1.0)

    def component(self, i: int) -> Dirichlet:
        """The ``i``-th component as a scalar Dirichlet object."""
        return Dirichlet(self.alphas[i])


class CountMixtureArray(_ArrayPosterior):
    """Mixture of ``n`` count components: Poisson or negative binomial.

    The vectorized counterpart of the SDS output when a Poisson slot is
    itself the reported variable. With ``rates is None`` every component
    is ``Poisson(p0_i)``; otherwise component ``i`` is the Gamma-Poisson
    marginal ``NB(r=p0_i, p=rate_i/(rate_i+1))``, the same
    parameterization as the batched "poisson" slot family.
    """

    __slots__ = _arrays = ("p0", "rates")
    _repr_fields = ("kind",)

    def __init__(self, p0, rates=None, weights=None):
        p0 = np.array(p0, dtype=float).reshape(-1)
        if p0.size == 0:
            raise DistributionError("need a non-empty parameter vector")
        if not p0.min() > 0:
            raise DistributionError("component parameters must be > 0")
        if rates is not None:
            rates = np.array(rates, dtype=float).reshape(-1)
            if rates.size != p0.size:
                raise DistributionError("need matching shape/rate vectors")
            if not rates.min() > 0:
                raise DistributionError("component rates must be > 0")
        self.p0 = p0
        self.rates = rates
        self._seal(weights, p0.size)

    @property
    def kind(self) -> str:
        return "poisson" if self.rates is None else "neg-binomial"

    def log_pdf(self, value) -> float:
        value = float(value)
        if self.rates is None:
            return self._mix(poisson_log_prob(value, self.p0))
        return self._mix(neg_binomial_log_prob(value, self.p0, self.rates))

    def _component_means(self) -> np.ndarray:
        if self.rates is None:
            return self.p0
        return self.p0 / self.rates

    def mean(self) -> float:
        return float(np.dot(self.weights, self._component_means()))

    def _moments(self):
        means = self._component_means()
        if self.rates is None:
            return means, self.p0
        return means, means * (self.rates + 1.0) / self.rates

    def component(self, i: int) -> Poisson:
        """The ``i``-th component as a scalar distribution object."""
        if self.rates is None:
            return Poisson(self.p0[i])
        from repro.delayed.conjugacy import _NegativeBinomialMarginal

        return _NegativeBinomialMarginal(self.p0[i], self.rates[i])
