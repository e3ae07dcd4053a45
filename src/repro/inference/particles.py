"""Particle representation and cloning.

The compilation of Section 4 externalizes the transition-function state,
which "makes it possible to clone a particle during its execution by
duplicating the state" (Section 5.1). For the delayed samplers a
particle's state additionally references random variables in a graph, so
cloning must copy the *reachable portion of the graph* and remap the
references consistently.

A graph particle is cloned in one walk over its state. Each reference to
a random variable (``RVar``) the walk meets copies its component: every
node reachable from it through the retained pointers that is not copied
yet, with the copies' pointers linked among themselves. A later
reference into nodes already copied reuses their copies, so each node is
copied once however many references reach it. Lists, dicts, ``RVar``s
and ``App`` terms are always rebuilt; a tuple whose elements all come
back unchanged holds none of them, so the clone shares it with the
source.

The graph copy is iterative (no recursion), so the arbitrarily long
marginal chains of the original DS implementation cannot overflow the
stack; its cost is proportional to the number of live nodes — the
mechanism behind the DS latency growth of Fig. 18.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.delayed.graph import BaseGraph
from repro.delayed.node import DSNode
from repro.symbolic import App, RVar, SymExpr, rebuild_tuple

__all__ = ["Particle", "clone_particle", "clone_state_concrete", "state_words"]


@dataclass
class Particle:
    """One particle: model state, optional graph, and a log-weight."""

    state: Any
    graph: Optional[BaseGraph] = None
    log_weight: float = 0.0


def clone_particle(particle: Particle) -> Particle:
    """Copy a particle: graph nodes, references, and model state.

    A graph particle's lists, dicts, ``RVar``s and ``App`` terms are
    rebuilt; its other values, tuples holding none of those included,
    are shared with the original.
    """
    graph = particle.graph
    if graph is None:
        return Particle(
            state=clone_state_concrete(particle.state),
            graph=None,
            log_weight=particle.log_weight,
        )
    new_state = _clone_value(particle.state, {})
    new_graph = copy.copy(graph)  # shares the rng; counters copied by value
    return Particle(state=new_state, graph=new_graph, log_weight=particle.log_weight)


def _clone_value(value: Any, copies: Dict[int, DSNode]) -> Any:
    """``value`` with every ``RVar`` pointing at a copy of its node.

    ``copies`` maps ``id(node)`` of each source node copied so far to
    its copy; the walk adds every new component it reaches.
    """
    if isinstance(value, tuple):
        if not value:
            return value
        # A plain loop: this branch is the hot path of SDS resampling, and
        # a comprehension costs an extra frame per tuple before 3.12.
        items = []
        changed = False
        for item in value:
            new = _clone_value(item, copies)
            changed = changed or new is not item
            items.append(new)
        return rebuild_tuple(value, items) if changed else value
    if isinstance(value, RVar):
        node_copy = copies.get(id(value.node))
        if node_copy is None:
            node_copy = _copy_component(value.node, copies)
        return RVar(node_copy)
    if isinstance(value, App):
        return App(value.op, tuple(_clone_value(a, copies) for a in value.args))
    if isinstance(value, list):
        return [_clone_value(v, copies) for v in value]
    if isinstance(value, dict):
        return {k: _clone_value(v, copies) for k, v in value.items()}
    return value


def _copy_component(root: DSNode, copies: Dict[int, DSNode]) -> DSNode:
    """Copy every node reachable from ``root`` that ``copies`` lacks.

    A node's copy is made when the walk first meets it and its pointers
    are linked when the walk pops it, so each node is visited once; a
    pointer into an earlier component links to the copy made there.
    """
    stack = []

    def copy_of(node: DSNode) -> DSNode:
        clone = copies.get(id(node))
        if clone is None:
            clone = copies[id(node)] = _shell(node)
            stack.append((node, clone))
        return clone

    root_copy = copy_of(root)
    while stack:
        node, clone = stack.pop()
        parent, marginal_child = node.parent, node.marginal_child
        clone.parent = None if parent is None else copy_of(parent)
        clone.marginal_child = (
            None if marginal_child is None else copy_of(marginal_child)
        )
        clone.children = [copy_of(c) for c in node.children]
    return root_copy


def _shell(node: DSNode) -> DSNode:
    """A copy of ``node``'s payload fields; immutable payloads are shared."""
    clone = DSNode.__new__(DSNode)
    clone.uid = node.uid
    clone.name = node.name
    clone.state = node.state
    clone.family = node.family
    clone.cdistr = node.cdistr
    clone.marginal = node.marginal
    clone.value = node.value
    clone.folded = node.folded
    clone.snapshot_cache = node.snapshot_cache
    return clone


def clone_state_concrete(state: Any) -> Any:
    """Copy a fully concrete model state (no graph references)."""
    if isinstance(state, (int, float, bool, str, bytes, type(None))):
        return state
    return copy.deepcopy(state)


def state_words(value: Any) -> int:
    """Abstract heap words occupied by a model-state value.

    Scalars count 1, arrays their size, containers the sum of their
    elements plus a header, symbolic expressions the size of their tree
    (graph nodes are counted separately by the graph census).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return 1
    if isinstance(value, SymExpr):
        if isinstance(value, App):
            return 1 + sum(state_words(a) for a in value.args)
        return 1  # RVar: one pointer word; the node is counted by the census
    if hasattr(value, "size") and hasattr(value, "ndim"):  # ndarray
        return 1 + int(value.size)
    if isinstance(value, (tuple, list)):
        return 1 + sum(state_words(v) for v in value)
    if isinstance(value, dict):
        return 1 + sum(state_words(v) for v in value.values())
    return 2
