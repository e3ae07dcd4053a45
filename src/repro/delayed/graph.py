"""Delayed-sampling graphs.

:class:`BaseGraph` implements the algorithmic core shared by the
original delayed-sampling structure and the pointer-minimal streaming
variant: ``assume``, ``graft``/``prune`` (the M-path discipline),
``marginalize``, ``realize``, forced ``value``, and ``observe``.

:class:`DelayedGraph` is the original structure of Murray et al. (2018):
every edge is bidirectional (children keep a pointer to their parent and
parents to their children) and edges are only removed when a node is
*realized*. Conditioning a marginalized parent on a realized child
happens eagerly at realization time. The consequence highlighted by the
paper (Fig. 3, Fig. 4): a chain of marginalized nodes — the state
trajectory of an HMM — is never detached, so memory grows linearly with
the number of steps even after the program has dropped every reference
to the old nodes.

The streaming, pointer-minimal variant lives in
:mod:`repro.delayed.streaming`.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Set

import numpy as np

from repro.delayed.conjugacy import ConditionalDist
from repro.delayed.node import DSNode, NodeState, family_of_dist
from repro.dists import Delta, Distribution
from repro.errors import GraphError

__all__ = ["BaseGraph", "DelayedGraph", "reachable_nodes", "graph_memory_words"]


class BaseGraph:
    """Shared delayed-sampling machinery.

    Subclasses fix the pointer policy through four hooks:
    :meth:`_on_assume_edge`, :meth:`_on_marginalize_edge`,
    :meth:`_on_realize`, and :meth:`posterior_marginal`.
    """

    #: True for the pointer-minimal streaming implementation.
    pointer_minimal = False

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self.rng = rng if rng is not None else np.random.default_rng()
        # Statistics (exposed for tests and the evaluation harness).
        self.n_assumed = 0
        self.n_realized = 0
        self.n_marginalized = 0

    def __copy__(self) -> "BaseGraph":
        """Shallow copy (shares the rng, copies the counters by value).

        Written out because ``copy.copy``'s generic protocol costs three
        times as much, and every resampled delayed particle copies one.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone

    # ------------------------------------------------------------------
    # assume
    # ------------------------------------------------------------------
    def assume_root(self, marginal: Distribution, name: str = "") -> DSNode:
        """Add a parentless random variable with the given marginal.

        Root nodes "start in the marginalized state" (Section 5.2).
        """
        self.n_assumed += 1
        return DSNode(
            NodeState.MARGINALIZED,
            family_of_dist(marginal),
            marginal=marginal,
            name=name,
        )

    def assume_conditional(
        self, cdistr: ConditionalDist, parent: DSNode, name: str = ""
    ) -> DSNode:
        """Add a random variable conditionally dependent on ``parent``.

        If the parent is already realized the conditional collapses to a
        concrete distribution and the new node is a marginalized root.
        """
        self.n_assumed += 1
        if parent.state is NodeState.REALIZED:
            return DSNode(
                NodeState.MARGINALIZED,
                cdistr.child_family,
                marginal=cdistr.at_parent_value(parent.value),
                name=name,
            )
        if parent.family != cdistr.parent_family:
            raise GraphError(
                f"conditional expects a {cdistr.parent_family} parent, "
                f"node {parent!r} has family {parent.family}"
            )
        node = DSNode(
            NodeState.INITIALIZED,
            cdistr.child_family,
            parent=parent,
            cdistr=cdistr,
            name=name,
        )
        self._on_assume_edge(parent, node)
        return node

    # ------------------------------------------------------------------
    # the M-path discipline
    # ------------------------------------------------------------------
    def graft(self, node: DSNode) -> None:
        """Make ``node`` the terminal node of a marginalized path.

        After grafting, ``node`` is marginalized and has no marginalized
        child, so it can be realized (sampled or observed).
        """
        if node.state is NodeState.REALIZED:
            raise GraphError("cannot graft a realized node")
        if node.state is NodeState.MARGINALIZED:
            child = self._live_marginal_child(node)
            if child is not None:
                self.prune(child)
            node.marginal_child = None
            return
        # Initialized: graft ancestors first, then marginalize this node.
        # The ancestor chain is walked iteratively so long initialized
        # chains (e.g. the paper's `walk` pathology) cannot overflow the
        # Python stack.
        chain: List[DSNode] = []
        cursor: Optional[DSNode] = node
        while cursor is not None and cursor.state is NodeState.INITIALIZED:
            chain.append(cursor)
            cursor = cursor.parent
        if cursor is not None and cursor.state is not NodeState.REALIZED:
            self.graft(cursor)  # marginalized ancestor: prune its M-child
        for link in reversed(chain):
            self.marginalize(link)

    def prune(self, node: DSNode) -> None:
        """Realize (by sampling) a whole marginalized sub-path below ``node``."""
        if node.state is not NodeState.MARGINALIZED:
            raise GraphError("prune expects a marginalized node")
        # Collect the marginalized chain below `node`, then realize from
        # the deepest node back up (each realization may condition its
        # parent, so order matters).
        chain: List[DSNode] = [node]
        cursor = self._live_marginal_child(node)
        while cursor is not None:
            chain.append(cursor)
            cursor = self._live_marginal_child(cursor)
        for link in reversed(chain):
            marginal = self.posterior_marginal(link)
            self.realize(link, marginal.sample(self.rng))

    def marginalize(self, node: DSNode) -> None:
        """Compute the marginal of an initialized node from its parent."""
        if node.state is not NodeState.INITIALIZED:
            raise GraphError("marginalize expects an initialized node")
        parent = node.parent
        if parent is None:
            raise GraphError("initialized node has no parent")
        self.n_marginalized += 1
        if parent.state is NodeState.REALIZED:
            # The parent was realized while this node was initialized:
            # the conditional collapses and the node becomes a root.
            node.marginal = node.cdistr.at_parent_value(parent.value)
            node.state = NodeState.MARGINALIZED
            node.parent = None
            return
        if parent.state is not NodeState.MARGINALIZED:
            raise GraphError("parent of a marginalized node must be marginalized")
        live_child = self._live_marginal_child(parent)
        if live_child is not None and live_child is not node:
            raise GraphError(
                "parent already has a marginalized child; graft should have pruned it"
            )
        node.marginal = node.cdistr.marginalize(self.posterior_marginal(parent))
        node.state = NodeState.MARGINALIZED
        parent.marginal_child = node
        self._on_marginalize_edge(parent, node)

    def realize(self, node: DSNode, value: Any) -> None:
        """Assign a concrete value to a marginalized node."""
        if node.state is not NodeState.MARGINALIZED:
            raise GraphError("realize expects a marginalized node (graft first)")
        live_child = self._live_marginal_child(node)
        if live_child is not None:
            raise GraphError("cannot realize a node with a marginalized child")
        self.n_realized += 1
        node.value = value
        node.state = NodeState.REALIZED
        node.marginal = None
        node.marginal_child = None
        self._on_realize(node)

    # ------------------------------------------------------------------
    # user-facing operations (Fig. 14's value / observe)
    # ------------------------------------------------------------------
    def value(self, node: DSNode) -> Any:
        """Force a concrete value for ``node``, sampling if necessary."""
        if node.state is NodeState.REALIZED:
            return node.value
        self.graft(node)
        marginal = self.posterior_marginal(node)
        drawn = marginal.sample(self.rng)
        self.realize(node, drawn)
        return drawn

    def observe(self, node: DSNode, value: Any) -> float:
        """Condition the graph on ``node == value``; returns the log-score.

        The score is the *marginal* (predictive) density of the
        observation — this is what makes delayed sampling a
        Rao-Blackwellized particle filter.
        """
        if node.state is NodeState.REALIZED:
            raise GraphError("cannot observe an already-realized node")
        self.graft(node)
        marginal = self.posterior_marginal(node)
        log_weight = marginal.log_pdf(value)
        self.realize(node, value)
        return log_weight

    def marginal_snapshot(self, node: DSNode) -> Distribution:
        """Current posterior marginal of ``node`` without realizing it.

        ProbZelus' ``infer`` reports distributions at every step without
        forcing realization (Section 5.3): realized nodes lift to Dirac,
        marginalized nodes report their (folded) marginal, and
        initialized nodes are resolved by walking the ancestor chain
        without mutating the graph.
        """
        if node.state is NodeState.REALIZED:
            # Realized values are final; the persistent delayed engines
            # snapshot every particle's output each step, so memoize the
            # Dirac instead of re-allocating it per step per particle.
            if node.snapshot_cache is None:
                node.snapshot_cache = Delta(node.value)
            return node.snapshot_cache
        if node.state is NodeState.MARGINALIZED:
            return self.posterior_marginal(node)
        # Initialized: fold conditionals down from the nearest
        # non-initialized ancestor.
        chain: List[DSNode] = []
        cursor: Optional[DSNode] = node
        while cursor is not None and cursor.state is NodeState.INITIALIZED:
            chain.append(cursor)
            cursor = cursor.parent
        if cursor is None:
            raise GraphError("initialized node chain has no anchored ancestor")
        if cursor.state is NodeState.REALIZED:
            base: Optional[Distribution] = None
            base_value = cursor.value
        else:
            base = self.posterior_marginal(cursor)
            base_value = None
        for link in reversed(chain):
            if base is None:
                base = link.cdistr.at_parent_value(base_value)
            else:
                base = link.cdistr.marginalize(base)
        return base

    # ------------------------------------------------------------------
    # pointer-policy hooks
    # ------------------------------------------------------------------
    def posterior_marginal(self, node: DSNode) -> Distribution:
        """Marginal of a marginalized node with all evidence folded in."""
        raise NotImplementedError

    def _on_assume_edge(self, parent: DSNode, child: DSNode) -> None:
        raise NotImplementedError

    def _on_marginalize_edge(self, parent: DSNode, child: DSNode) -> None:
        raise NotImplementedError

    def _on_realize(self, node: DSNode) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _live_marginal_child(self, node: DSNode) -> Optional[DSNode]:
        """The node's marginalized child, if it is still marginalized.

        The pointer-minimal implementation cannot clear a parent's
        ``marginal_child`` field when the child is realized (the child
        holds no back-pointer), so staleness is checked lazily here.
        """
        child = node.marginal_child
        if child is not None and child.state is NodeState.MARGINALIZED:
            return child
        return None


class DelayedGraph(BaseGraph):
    """Original delayed sampling (Murray et al. 2018).

    Bidirectional edges, removed only at realization; eager conditioning
    of the parent when a child is realized.
    """

    pointer_minimal = False

    def posterior_marginal(self, node: DSNode) -> Distribution:
        if node.state is not NodeState.MARGINALIZED:
            raise GraphError("posterior_marginal expects a marginalized node")
        return node.marginal  # conditioning is eager: always up to date

    def _on_assume_edge(self, parent: DSNode, child: DSNode) -> None:
        parent.children.append(child)

    def _on_marginalize_edge(self, parent: DSNode, child: DSNode) -> None:
        # Bidirectional pointers are kept: this is precisely what keeps
        # the whole marginalized history reachable (Fig. 3).
        pass

    def _on_realize(self, node: DSNode) -> None:
        parent = node.parent
        if parent is not None:
            if parent.state is NodeState.MARGINALIZED:
                parent.marginal = node.cdistr.posterior(parent.marginal, node.value)
            if parent.marginal_child is node:
                parent.marginal_child = None
            if node in parent.children:
                parent.children.remove(node)
            node.parent = None
        # Initialized children become marginalized roots immediately.
        for child in node.children:
            if child.state is NodeState.INITIALIZED:
                child.marginal = child.cdistr.at_parent_value(node.value)
                child.state = NodeState.MARGINALIZED
                child.parent = None
        node.children = []


def reachable_nodes(roots: Iterable[DSNode]) -> Set[DSNode]:
    """All graph nodes reachable from ``roots`` through retained pointers.

    This is the "live heap" of the delayed-sampling structure as a
    garbage collector would see it: the paper's ideal-memory experiment
    (Section 6.3) measures exactly this quantity.
    """
    seen: Set[int] = set()
    result: Set[DSNode] = set()
    stack: List[DSNode] = [r for r in roots if r is not None]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        result.add(node)
        neighbors: List[Optional[DSNode]] = [node.parent, node.marginal_child]
        neighbors.extend(node.children)
        for nxt in neighbors:
            if nxt is not None and id(nxt) not in seen:
                stack.append(nxt)
    return result


def graph_memory_words(roots: Iterable[DSNode]) -> int:
    """Total abstract words held live by the graph, from ``roots``."""
    nodes = reachable_nodes(roots)
    words = 0
    for node in nodes:
        words += node.memory_words()
        words += len(node.children) + 2  # pointer fields
    return words
