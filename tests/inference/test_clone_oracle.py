"""The one-walk particle clone against the two-pass oracle.

Hypothesis builds a delayed-sampling graph by running random graph
operations (roots, conditional children, observations, forced values,
snapshots) on both graph flavors, then a random nested model state that
references random nodes, through bare ``RVar``s and ``App`` terms
inside tuples, namedtuples, lists and dicts. ``clone_particle`` must
copy it exactly as :func:`clone_oracle.oracle_clone_particle` does: the
same nodes, the same pointer topology, nothing shared with the source
graph, one copy per node however many references reach it, and fresh
mutable containers.
"""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clone_oracle import oracle_clone_particle
from repro.delayed import DelayedGraph, NodeState, StreamingGraph
from repro.delayed.conjugacy import AffineGaussian
from repro.delayed.graph import reachable_nodes
from repro.dists import Gaussian
from repro.inference.particles import Particle, clone_particle
from repro.symbolic import App, RVar, free_rvars

Pair = namedtuple("Pair", "left right")

# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

_numbers = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
_graph_ops = st.lists(
    st.tuples(
        st.sampled_from(["root", "child", "observe", "value", "snapshot"]),
        st.integers(min_value=0, max_value=63),
        _numbers,
    ),
    max_size=14,
)


def _build_graph(graph, ops):
    """Run ``ops`` on ``graph``; every node assumed on the way."""
    nodes = [graph.assume_root(Gaussian(0.0, 1.0))]
    for op, index, number in ops:
        node = nodes[index % len(nodes)]
        if op == "root":
            nodes.append(graph.assume_root(Gaussian(number, 1.0)))
        elif op == "child":
            cdistr = AffineGaussian(1.0 + number / 4.0, number, 1.0)
            nodes.append(graph.assume_conditional(cdistr, node))
        elif node.state is NodeState.REALIZED:
            continue
        elif op == "observe":
            graph.observe(node, number)
        elif op == "value":
            graph.value(node)
        else:
            graph.marginal_snapshot(node)
    return nodes


def _states(nodes):
    """Nested model states referencing ``nodes``."""
    refs = st.sampled_from(nodes).map(RVar)
    leaves = st.one_of(
        _numbers,
        st.integers(min_value=-3, max_value=3),
        st.booleans(),
        st.none(),
        refs,
        refs.map(lambda rv: 2.0 * rv + 1.0),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3).map(tuple),
            st.tuples(inner, inner).map(lambda pair: Pair(*pair)),
            st.lists(inner, max_size=3),
            st.dictionaries(st.sampled_from("abc"), inner, max_size=3),
        ),
        max_leaves=12,
    )


@st.composite
def particles(draw, graph_cls):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    graph = graph_cls(rng=np.random.default_rng(seed))
    nodes = _build_graph(graph, draw(_graph_ops))
    # Direct references to several nodes, in a random order, make one
    # reference's reach often overlap an earlier one's.
    refs = tuple(map(RVar, draw(st.permutations(nodes))[:4]))
    state = (refs, draw(_states(nodes)))
    return Particle(state=state, graph=graph, log_weight=-1.5)


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------

def _needs_rebuild(value):
    """True when ``value`` is or holds an RVar, App, list or dict."""
    if isinstance(value, (RVar, App, list, dict)):
        return True
    return isinstance(value, tuple) and any(map(_needs_rebuild, value))


def _walk(source, new, oracle, copies, pairs):
    """Check ``new`` against ``oracle`` leaf by leaf, guided by ``source``.

    ``copies`` maps ``id(source node)`` to its copy in ``new``; ``pairs``
    collects (new node, oracle node) for the graph comparison.
    """
    if isinstance(source, RVar):
        assert type(new) is RVar and type(oracle) is RVar
        assert new is not source
        # Two references to one node map to one copy.
        assert copies.setdefault(id(source.node), new.node) is new.node
        pairs.append((new.node, oracle.node))
    elif isinstance(source, App):
        assert type(new) is App and new is not source
        assert new.op == oracle.op == source.op
        for parts in zip(source.args, new.args, oracle.args, strict=True):
            _walk(*parts, copies, pairs)
    elif isinstance(source, tuple):
        assert type(new) is type(source)
        # A tuple is shared exactly when nothing inside needs rebuilding.
        assert (new is source) is not _needs_rebuild(source)
        for parts in zip(source, new, oracle, strict=True):
            _walk(*parts, copies, pairs)
    elif isinstance(source, list):
        assert type(new) is list and new is not source
        for parts in zip(source, new, oracle, strict=True):
            _walk(*parts, copies, pairs)
    elif isinstance(source, dict):
        assert type(new) is dict and new is not source
        assert list(new) == list(oracle) == list(source)
        for key in source:
            _walk(source[key], new[key], oracle[key], copies, pairs)
    else:
        assert new is source and oracle is source


def _assert_same_graph(pairs):
    """The copies reachable from ``pairs`` match the oracle's one to one."""
    to_oracle, to_new = {}, {}
    stack = list(pairs)
    while stack:
        new, old = stack.pop()
        if id(new) in to_oracle or id(old) in to_new:
            assert to_oracle.get(id(new)) is old and to_new.get(id(old)) is new
            continue
        to_oracle[id(new)], to_new[id(old)] = old, new
        assert (new.uid, new.state, new.folded) == (old.uid, old.state, old.folded)
        assert new.marginal is old.marginal and new.value is old.value
        assert new.cdistr is old.cdistr
        for field in ("parent", "marginal_child"):
            a, b = getattr(new, field), getattr(old, field)
            assert (a is None) == (b is None)
            if a is not None:
                stack.append((a, b))
        assert len(new.children) == len(old.children)
        stack.extend(zip(new.children, old.children))
    assert len(reachable_nodes(n for n, _ in pairs)) == len(to_oracle)
    assert len(reachable_nodes(o for _, o in pairs)) == len(to_new)


def assert_clone_matches_oracle(particle):
    source_nodes = reachable_nodes(rv.node for rv in free_rvars(particle.state))
    new = clone_particle(particle)
    oracle = oracle_clone_particle(particle)
    assert new.log_weight == oracle.log_weight == particle.log_weight
    assert new.graph is not particle.graph
    assert new.graph.rng is particle.graph.rng
    pairs = []
    _walk(particle.state, new.state, oracle.state, {}, pairs)
    _assert_same_graph(pairs)
    copied = reachable_nodes(n for n, _ in pairs)
    assert not {id(n) for n in copied} & {id(n) for n in source_nodes}
    return new


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------

@pytest.mark.parametrize("graph_cls", [StreamingGraph, DelayedGraph])
class TestCloneMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_generated_states(self, graph_cls, data):
        assert_clone_matches_oracle(data.draw(particles(graph_cls)))

    @pytest.mark.parametrize("reversed_refs", [False, True])
    def test_overlapping_reach_copies_shared_node_once(
        self, graph_cls, reversed_refs, rng
    ):
        """``x`` is an initialized child of ``pre``: the nodes reachable
        from ``x`` include ``pre``, so a walk that copied each
        reference's whole reach would give ``x`` a second ``pre``."""
        graph = graph_cls(rng=rng)
        pre = graph.assume_root(Gaussian(0.0, 1.0))
        x = graph.assume_conditional(AffineGaussian(1.0, 0.0, 1.0), pre)
        assert x.parent is pre and x.state is NodeState.INITIALIZED
        refs = (RVar(pre), RVar(x))
        state = refs[::-1] if reversed_refs else refs
        clone = assert_clone_matches_oracle(Particle(state=state, graph=graph))
        by_uid = {rv.node.uid: rv.node for rv in clone.state}
        pre_copy, x_copy = by_uid[pre.uid], by_uid[x.uid]
        assert x_copy.parent is pre_copy
        assert len(reachable_nodes([pre_copy, x_copy])) == 2

    def test_shared_tuples_and_namedtuple_type(self, graph_cls, rng):
        graph = graph_cls(rng=rng)
        node = graph.assume_root(Gaussian(0.0, 1.0))
        inert = ((), (1.0, "a"), Pair(2.0, None))
        state = Pair(RVar(node), inert)
        clone = assert_clone_matches_oracle(Particle(state=state, graph=graph))
        assert type(clone.state) is Pair
        assert clone.state.right is inert
