"""The ``assume`` / ``observe`` / ``value`` / ``distribution`` interface.

These are the four functions of Fig. 14 and Section 5.3, connecting model
code (which manipulates symbolic expressions and lifted distributions) to
a delayed-sampling graph:

* :func:`assume` adds a random variable, detecting conjugacy between the
  symbolic distribution term and an existing variable; when symbolic
  computation is impossible, it breaks dependencies by realizing the
  variables appearing in the term,
* :func:`observe_dist` assumes then conditions, returning the marginal
  log-likelihood of the observation (the particle's weight update),
* :func:`value_expr` forces a symbolic term to a concrete value,
* :func:`lift_distribution` is the paper's ``distribution(e, g)``:
  the closed-form distribution of a symbolic term, concrete values lifted
  to Dirac, affine images of Gaussian variables transformed exactly.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.delayed.conjugacy import (
    AffineGaussian,
    GaussianUnknownVariance,
    BetaBernoulli,
    BetaBinomial,
    DirichletCategorical,
    GammaPoisson,
    GaussianProjection,
    MvAffineGaussian,
)
from repro.delayed.graph import BaseGraph
from repro.delayed.node import DSNode
from repro.dists import Delta, Distribution, Gaussian, MvGaussian, TupleDist
from repro.errors import GraphError
from repro.lang import lifted
from repro.lang.lifted import SymDist
from repro.symbolic import RVar, extract_affine, eval_expr, is_symbolic

__all__ = ["assume", "observe_dist", "value_expr", "lift_distribution"]


def value_expr(graph: BaseGraph, expr: Any) -> Any:
    """Concrete value of ``expr``, realizing random variables as needed."""
    if not is_symbolic(expr):
        return expr
    return eval_expr(expr, graph.value)


def assume(graph: BaseGraph, dist: Any, name: str = "") -> DSNode:
    """Add the random variable described by ``dist`` to the graph.

    ``dist`` is either a concrete :class:`Distribution` (a new root) or a
    :class:`SymDist` whose parameters reference existing variables. A
    conjugacy relationship with a single parent variable produces an
    initialized child node; otherwise the referenced variables are
    realized and the collapsed concrete distribution becomes a root.
    """
    if isinstance(dist, Distribution):
        return graph.assume_root(dist, name=name)
    if not isinstance(dist, SymDist):
        raise GraphError(f"assume expects a distribution, got {type(dist).__name__}")

    node = _try_conjugate(graph, dist, name)
    if node is not None:
        return node
    # No symbolic relationship: break dependencies by realization.
    concrete = _force_concrete(graph, dist)
    return graph.assume_root(concrete, name=name)


def observe_dist(graph: BaseGraph, dist: Any, value: Any, name: str = "") -> float:
    """Condition on an observation drawn from ``dist``; returns log-weight."""
    node = assume(graph, dist, name=name)
    concrete_value = value_expr(graph, value)
    return graph.observe(node, concrete_value)


def lift_distribution(graph: BaseGraph, expr: Any) -> Distribution:
    """Closed-form distribution of a symbolic term (``distribution(e, g)``).

    Concrete values become Dirac deltas; a bare variable reports its
    posterior marginal snapshot; an affine image of a Gaussian variable
    is transformed in closed form; tuples become products. Non-affine
    symbolic terms cannot be represented in closed form, so their
    variables are realized first (the same dependency-breaking rule as
    ``assume``).
    """
    if not is_symbolic(expr):
        return Delta(expr)
    if isinstance(expr, RVar):
        return graph.marginal_snapshot(expr.node)
    if isinstance(expr, tuple):
        return TupleDist([lift_distribution(graph, e) for e in expr])
    form = extract_affine(expr)
    if form is not None and form.rv is not None:
        base = graph.marginal_snapshot(form.rv)
        transformed = _affine_image(base, form.coeff, form.const)
        if transformed is not None:
            return transformed
    return Delta(value_expr(graph, expr))


# ----------------------------------------------------------------------
# conjugacy detection
# ----------------------------------------------------------------------

def _try_conjugate(graph: BaseGraph, dist: SymDist, name: str):
    """Initialized child node if ``dist`` is conjugate to one variable."""
    kind = dist.kind
    if kind == "gaussian":
        mean, var = dist.params
        if is_symbolic(var):
            # unknown variance: N(mu, sigma2) with sigma2 ~ InverseGamma
            parent = _identity_parent(var, "inverse_gamma")
            if parent is not None and not is_symbolic(mean):
                cdistr = GaussianUnknownVariance(float(mean))
                return graph.assume_conditional(cdistr, parent, name=name)
            return None
        form = extract_affine(mean)
        if form is None or form.rv is None:
            return None
        parent = form.rv
        if parent.family == "gaussian" and np.ndim(form.coeff) == 0:
            cdistr = AffineGaussian(form.coeff, form.const, float(var))
            return graph.assume_conditional(cdistr, parent, name=name)
        if parent.family == "mv_gaussian" and np.ndim(form.coeff) == 1:
            cdistr = GaussianProjection(form.coeff, form.const, float(var))
            return graph.assume_conditional(cdistr, parent, name=name)
        return None
    if kind == "mv_gaussian":
        mean, cov = dist.params
        if is_symbolic(cov):
            return None
        form = extract_affine(mean)
        if form is None or form.rv is None:
            return None
        parent = form.rv
        if parent.family == "mv_gaussian" and np.ndim(form.coeff) == 2:
            cdistr = MvAffineGaussian(form.coeff, form.const, np.asarray(cov))
            return graph.assume_conditional(cdistr, parent, name=name)
        return None
    if kind == "bernoulli":
        (p,) = dist.params
        parent = _identity_parent(p, "beta")
        if parent is None:
            return None
        return graph.assume_conditional(BetaBernoulli(), parent, name=name)
    if kind == "binomial":
        n, p = dist.params
        if is_symbolic(n):
            return None
        parent = _identity_parent(p, "beta")
        if parent is None:
            return None
        return graph.assume_conditional(BetaBinomial(int(n)), parent, name=name)
    if kind == "poisson":
        (lam,) = dist.params
        parent = _identity_parent(lam, "gamma")
        if parent is None:
            return None
        return graph.assume_conditional(GammaPoisson(), parent, name=name)
    if kind == "categorical":
        (probs,) = dist.params
        parent = _identity_parent(probs, "dirichlet")
        if parent is None:
            return None
        return graph.assume_conditional(DirichletCategorical(), parent, name=name)
    return None


def _identity_parent(expr: Any, family: str):
    """The graph node if ``expr`` is exactly a variable of ``family``."""
    if isinstance(expr, RVar) and expr.node.family == family:
        return expr.node
    return None


def _force_concrete(graph: BaseGraph, dist: SymDist) -> Distribution:
    """Realize the variables in a symbolic distribution's parameters."""
    params = tuple(value_expr(graph, p) for p in dist.params)
    constructor = getattr(lifted, dist.kind, None)
    if constructor is None:
        raise GraphError(f"unknown symbolic distribution kind {dist.kind!r}")
    result = constructor(*params)
    if not isinstance(result, Distribution):
        raise GraphError(
            f"symbolic distribution {dist.kind!r} did not collapse after realization"
        )
    return result


def _affine_image(base: Distribution, coeff: Any, const: Any):
    """Distribution of ``coeff * X + const`` for ``X ~ base``, if closed form."""
    if isinstance(base, Gaussian) and np.ndim(coeff) == 0:
        if coeff == 0.0:
            return Delta(const)
        return base.affine(float(coeff), float(const))
    if isinstance(base, MvGaussian):
        if np.ndim(coeff) == 1:
            mean = float(coeff @ base.mu) + float(np.asarray(const).reshape(()))
            var = float(coeff @ base.cov @ coeff)
            if var <= 0.0:
                return Delta(mean)
            return Gaussian(mean, var)
        if np.ndim(coeff) == 2:
            return base.affine(coeff, np.asarray(const).reshape(-1))
    if isinstance(base, Delta):
        value = base.value
        if np.ndim(coeff) == 0:
            return Delta(coeff * value + const)
        return Delta(np.asarray(coeff) @ np.asarray(value) + np.asarray(const))
    return None
