"""Delayed sampling: graphs, conjugacy, and the assume/observe interface."""

from repro.delayed.conjugacy import (
    AffineGaussian,
    BetaBernoulli,
    BetaBinomial,
    ConditionalDist,
    DirichletCategorical,
    GammaPoisson,
    GaussianProjection,
    GaussianUnknownVariance,
    MvAffineGaussian,
)
from repro.delayed.graph import (
    BaseGraph,
    DelayedGraph,
    graph_memory_words,
    reachable_nodes,
)
from repro.delayed.interface import (
    assume,
    lift_distribution,
    observe_dist,
    value_expr,
)
from repro.delayed.node import DSNode, NodeState, family_of_dist
from repro.delayed.streaming import StreamingGraph

__all__ = [
    "BaseGraph",
    "DelayedGraph",
    "StreamingGraph",
    "DSNode",
    "NodeState",
    "family_of_dist",
    "reachable_nodes",
    "graph_memory_words",
    "assume",
    "observe_dist",
    "value_expr",
    "lift_distribution",
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
