"""The two-pass delayed-particle clone, kept as a test oracle.

This is how :func:`repro.inference.particles.clone_particle` used to
copy a particle that holds a graph, written the straightforward way:

1. collect the random variables of the state (``free_rvars``) and every
   node reachable from them (``reachable_nodes``),
2. make one shell per node, then link the shells' pointer fields,
3. rebuild the whole state, remapping each ``RVar`` into the shells.

The library now does all of that in one walk over the state, sharing
the tuples that hold no random variable; ``test_clone_oracle.py`` holds
it to this reference. One difference is kept on purpose: step 3 rebuilds
every tuple as a plain ``tuple``, so a namedtuple state comes back
without its type; the comparison checks types against the source state.
"""

from __future__ import annotations

import copy
from typing import Any, Dict

from repro.delayed.graph import reachable_nodes
from repro.delayed.node import DSNode
from repro.inference.particles import Particle
from repro.symbolic import App, RVar, free_rvars


def _clone_node_shells(nodes) -> Dict[int, DSNode]:
    """First pass: shallow node copies sharing immutable payloads."""
    mapping: Dict[int, DSNode] = {}
    for node in nodes:
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
        clone.parent = None
        clone.children = []
        clone.marginal_child = None
        mapping[id(node)] = clone
    return mapping


def _fix_pointers(nodes, mapping: Dict[int, DSNode]) -> None:
    """Second pass: remap pointer fields into the cloned node set."""
    for node in nodes:
        clone = mapping[id(node)]
        if node.parent is not None:
            clone.parent = mapping.get(id(node.parent))
        if node.marginal_child is not None:
            clone.marginal_child = mapping.get(id(node.marginal_child))
        clone.children = [
            mapping[id(c)] for c in node.children if id(c) in mapping
        ]


def _remap_value(value: Any, mapping: Dict[int, DSNode]) -> Any:
    """Rebuild a state value, remapping RVar references into the clone."""
    if isinstance(value, RVar):
        replacement = mapping.get(id(value.node))
        if replacement is None:
            return value
        return RVar(replacement)
    if isinstance(value, App):
        return App(value.op, tuple(_remap_value(a, mapping) for a in value.args))
    if isinstance(value, tuple):
        return tuple(_remap_value(v, mapping) for v in value)
    if isinstance(value, list):
        return [_remap_value(v, mapping) for v in value]
    if isinstance(value, dict):
        return {k: _remap_value(v, mapping) for k, v in value.items()}
    return value


def oracle_clone_particle(particle: Particle) -> Particle:
    """Two-pass copy of a graph particle: nodes, pointers, then state."""
    roots = [rv.node for rv in free_rvars(particle.state)]
    nodes = reachable_nodes(roots)
    mapping = _clone_node_shells(nodes)
    _fix_pointers(nodes, mapping)
    new_graph = copy.copy(particle.graph)
    new_state = _remap_value(particle.state, mapping)
    return Particle(state=new_state, graph=new_graph, log_weight=particle.log_weight)
