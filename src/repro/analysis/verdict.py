"""The abstract domain and the verdict backend shared by both front ends.

The analysis has two front ends — :mod:`repro.analysis.absint` for
Python ``step`` functions and :mod:`repro.analysis.core_ast` for
kernel-AST programs — and one backend, this module. A front end
evaluates one abstract instant of its model over the value lattice
below, registering the random variables it samples and observes in a
:class:`StepRecord`, and names each slot of the stream state.
Everything that happens after one instant is done here, once:

* the fixpoint over instants: random variables flowing into the state
  are replaced by *carried* markers and churning constant slots are
  widened, until the state's abstract structure repeats (the
  steady-state instant);
* the bounded-memory check (``REP001``/``REP008``): every sampled
  variable must be *consumed* — observed through a conjugate child,
  or realized — within a bounded number of instants along the
  dataflow of the state. A fresh variable that cycles through state
  slots unconsumed grows the delayed-sampling chain by one node per
  instant (the ``walk`` pathology); a never-consumed persistent
  variable that anchors a growing chain is the ``hmm_init`` pathology
  of Section 5.3;
* the family check (``REP004``) against the batched runtime's own
  :data:`~repro.vectorized.sds_graph.FAMILY_KERNELS`;
* edge linking against the batched conjugacy kernels (``REP003``
  marks a predicted realize-and-continue site), sample/observe/value
  bookkeeping (``REP005``), the branch verdict (``REP002`` for a
  branch on a per-particle value, ``REP009`` on a symbolic one) and
  the output check (``REP010``);
* the :class:`~repro.analysis.report.ModelAnalysis` assembly.

Slot keys may be any hashable value: the Python front end uses tuple
paths into the returned state, the kernel-AST front end ``init`` names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.analysis.report import (
    DANGLING_RV,
    LOCKSTEP_BRANCH,
    NONBATCHABLE_FAMILY,
    NONCONJUGATE_EDGE,
    SYMBOLIC_BRANCH,
    UNBOUNDED_MEMORY,
    UNLIFTABLE_OUTPUT,
    UNUSED_OBSERVE,
    Diagnostic,
    EdgeInfo,
    ModelAnalysis,
    RVNode,
    Site,
    StepGraph,
    make_diagnostic,
)

#: abstract instants until the state structure must stabilize
MAX_ABSTRACT_STEPS = 8

#: distribution constructors: the :mod:`repro.lang` functions and the
#: surface operators of the same names
DIST_FAMILIES = frozenset(
    {
        "gaussian",
        "mv_gaussian",
        "beta",
        "bernoulli",
        "binomial",
        "gamma",
        "poisson",
        "dirichlet",
        "categorical",
        "exponential",
        "uniform",
        "inverse_gamma",
        "delta",
    }
)


class Inconclusive(Exception):
    """The analysis cannot see through the model."""


# ----------------------------------------------------------------------
# abstract values
# ----------------------------------------------------------------------

class AbsVal:
    """Base class of abstract values."""


@dataclass(frozen=True)
class AbsConst(AbsVal):
    """A value the analysis knows concretely (model params, literals)."""

    value: Any


@dataclass(frozen=True)
class AbsInput(AbsVal):
    """The step input or a projection of it — shared by all particles."""

    path: str = "input"


@dataclass(frozen=True)
class Affine(AbsVal):
    """Affine dependence on exactly one random variable.

    ``kind`` is ``"scalar"`` (a + b*x), ``"projection"`` (component
    read of a multivariate variable, possibly rescaled), or ``"mv"``
    (matrix-affine transform of a multivariate variable).
    """

    uid: int
    kind: str


@dataclass(frozen=True)
class AbsRV(AbsVal):
    """A reference to a random-variable node of the step graph."""

    uid: int


@dataclass(frozen=True)
class AbsDerived(AbsVal):
    """An expression over random variables / forced values / inputs.

    ``rvs`` are the symbolic random variables the value depends on;
    ``forced`` marks per-particle concrete values (results of
    ``value``); ``inputy`` marks dependence on the step input.
    ``affine`` is set when the value is affine in exactly one variable.
    """

    rvs: frozenset = frozenset()
    affine: Optional[Affine] = None
    forced: bool = False
    inputy: bool = False


@dataclass(frozen=True)
class AbsTuple(AbsVal):
    elems: Tuple[AbsVal, ...]


@dataclass(frozen=True)
class AbsDist(AbsVal):
    """An unevaluated distribution term: family plus abstract params."""

    family: str
    params: Tuple[AbsVal, ...]


def rvs(val: AbsVal) -> frozenset:
    """The random variables ``val`` depends on."""
    if isinstance(val, AbsRV):
        return frozenset((val.uid,))
    if isinstance(val, AbsDerived):
        return val.rvs
    if isinstance(val, AbsTuple):
        return frozenset().union(*map(rvs, val.elems))
    if isinstance(val, AbsDist):
        return frozenset().union(*map(rvs, val.params))
    return frozenset()


def flag(val: AbsVal, name: str) -> bool:
    """Whether ``val`` is ``"forced"`` (per-particle) or ``"inputy"``."""
    if isinstance(val, AbsDerived):
        return getattr(val, name)
    if isinstance(val, AbsTuple):
        return any(flag(e, name) for e in val.elems)
    if isinstance(val, AbsInput):
        return name == "inputy"
    return False


def derived(*vals: AbsVal, affine: Optional[Affine] = None) -> AbsDerived:
    """An opaque value computed from ``vals``."""
    return AbsDerived(
        rvs=frozenset().union(*map(rvs, vals)),
        affine=affine,
        forced=any(flag(v, "forced") for v in vals),
        inputy=any(flag(v, "inputy") for v in vals),
    )


def is_concrete(val: AbsVal) -> bool:
    if isinstance(val, AbsConst):
        return True
    if isinstance(val, AbsTuple):
        return all(is_concrete(e) for e in val.elems)
    return False


def concrete(val: AbsVal) -> Any:
    if isinstance(val, AbsConst):
        return val.value
    if isinstance(val, AbsTuple):
        return tuple(concrete(e) for e in val.elems)
    raise Inconclusive("expected a concrete value")


def affine_of(val: AbsVal) -> Optional[Affine]:
    if isinstance(val, AbsRV):
        return Affine(val.uid, "scalar")
    if isinstance(val, AbsDerived):
        return val.affine
    return None


def join(a: AbsVal, b: AbsVal) -> AbsVal:
    """The value after a branch whose arms produced ``a`` and ``b``."""
    if a == b:
        return a
    if isinstance(a, AbsTuple) and isinstance(b, AbsTuple) and len(a.elems) == len(b.elems):
        return AbsTuple(tuple(map(join, a.elems, b.elems)))
    return derived(a, b)


# ----------------------------------------------------------------------
# one abstract instant
# ----------------------------------------------------------------------

@dataclass
class Node:
    uid: int
    name: str
    family: str
    kind: str  # sample | observe | carried
    root: bool
    site: Site
    parents: List[int] = field(default_factory=list)
    children: List[int] = field(default_factory=list)
    observed: bool = False
    realized: bool = False
    slot: Optional[Hashable] = None  # for carried markers
    default_name: bool = True


@dataclass
class StepRecord:
    """Everything one abstract instant produced."""

    nodes: Dict[int, Node] = field(default_factory=dict)
    edges: List[EdgeInfo] = field(default_factory=list)
    roots: int = 0
    forced: int = 0
    families: Set[str] = field(default_factory=set)
    realize_sites: List[EdgeInfo] = field(default_factory=list)

    def consumed(self, uid: int) -> bool:
        """Observed/realized, directly or through a same-step descendant."""
        seen: Set[int] = set()
        stack = [uid]
        while stack:
            cur = stack.pop()
            if cur in seen or cur not in self.nodes:
                continue
            seen.add(cur)
            node = self.nodes[cur]
            if node.observed or node.realized:
                return True
            stack.extend(node.children)
        return False

    def carried_ancestors(self, uid: int) -> Set[Hashable]:
        """Slots of the carried markers among a node's in-step ancestors."""
        out: Set[Hashable] = set()
        seen: Set[int] = set()
        stack = [uid]
        while stack:
            cur = stack.pop()
            if cur in seen or cur not in self.nodes:
                continue
            seen.add(cur)
            node = self.nodes[cur]
            if node.kind == "carried" and cur != uid:
                out.add(node.slot)
                continue
            stack.extend(node.parents)
        return out


def arith(name: str, args: Tuple[AbsVal, ...], record: StepRecord) -> AbsVal:
    """A lifted operator of :mod:`repro.core.ops` on abstract operands,
    keeping track of affine dependence on one random variable."""
    affine = None
    if name in ("add", "sub", "mul", "div") and len(args) == 2:
        a, b = args
        if rvs(a) and not rvs(b):
            affine = affine_of(a)
        elif rvs(b) and not rvs(a) and name != "div":
            affine = affine_of(b)
    elif name == "neg" and len(args) == 1:
        affine = affine_of(args[0])
    elif name == "matvec" and len(args) == 2:
        aff = affine_of(args[1])
        if aff is not None:
            affine = Affine(aff.uid, "mv")
    elif name == "getitem" and len(args) == 2 and isinstance(args[0], AbsRV):
        node = record.nodes.get(args[0].uid)
        if node is not None and node.family == "mv_gaussian":
            affine = Affine(args[0].uid, "projection")
    return derived(*args, affine=affine)


def classify_dist_edge(record: StepRecord, dist: AbsDist) -> Tuple[str, bool]:
    """Classify a dist's dependence on its random-variable params.

    Returns ``(kind, conjugate)`` where ``kind`` is one of ``affine``,
    ``projection``, ``mv_affine``, ``beta_bernoulli``, ``gamma_poisson``,
    ``dirichlet_categorical``, or ``nonconjugate``.
    """
    params = dist.params
    family = dist.family
    all_rvs = rvs(dist)
    if len(all_rvs) > 1:
        return "nonconjugate", False
    (parent_uid,) = tuple(all_rvs)
    parent = record.nodes.get(parent_uid)
    pfam = parent.family if parent else ""

    if family == "gaussian" and len(params) >= 2:
        mean, var = params[0], params[1]
        if rvs(var):
            return "nonconjugate", False
        aff = affine_of(mean)
        if aff is None or aff.uid != parent_uid:
            return "nonconjugate", False
        if pfam == "gaussian" and aff.kind == "scalar":
            return "affine", True
        if pfam == "mv_gaussian" and aff.kind == "projection":
            return "projection", True
        return "nonconjugate", False
    if family == "mv_gaussian" and len(params) >= 2:
        mean, cov = params[0], params[1]
        if rvs(cov):
            return "nonconjugate", False
        aff = affine_of(mean)
        if (
            aff is not None
            and aff.uid == parent_uid
            and pfam == "mv_gaussian"
            and aff.kind in ("scalar", "mv")
        ):
            return "mv_affine", True
        return "nonconjugate", False
    identity = len(params) >= 1 and isinstance(params[0], AbsRV)
    if family == "bernoulli" and identity and pfam == "beta":
        return "beta_bernoulli", True
    if family == "poisson" and identity and pfam == "gamma":
        return "gamma_poisson", True
    if family == "categorical" and identity and pfam == "dirichlet":
        return "dirichlet_categorical", True
    return "nonconjugate", False


# ----------------------------------------------------------------------
# the analyzer
# ----------------------------------------------------------------------

def _signature(slots: Dict[Hashable, AbsVal]) -> frozenset:
    """The abstract structure of a state: what kind of value each slot holds."""

    def shape(val: AbsVal) -> Tuple:
        if rvs(val):
            return ("rv",)
        if isinstance(val, AbsConst):
            return ("const", repr(val.value))
        return ("input",) if flag(val, "inputy") else ("derived",)

    return frozenset((key,) + shape(val) for key, val in slots.items())


class Analyzer:
    """Fixpoint, verdicts and diagnostics of one model.

    A front end subclasses this and implements :meth:`instant` and
    :meth:`slot_name`; it may override :meth:`initial_state`,
    :meth:`slot_site` and :meth:`lints`. While evaluating an instant it calls
    :meth:`sample`, :meth:`observe`, :meth:`value`,
    :meth:`branch_verdict` and :meth:`both_arms`, which fill
    ``self.record``, and :meth:`output` on the instant's output.
    """

    def __init__(self, name: str, site: Site):
        self.name = name
        #: where model-wide findings (REP004) point
        self.model_site = site
        self.diagnostics: List[Diagnostic] = []
        #: the random variables of the instant being evaluated
        self.record = StepRecord()
        self.batchable_ok = True
        #: nesting depth of branches on per-particle values: observes
        #: below them select particles, so they are not posterior-neutral
        self.particle_depth = 0
        self._uids = itertools.count(1)
        self._carried: Dict[int, Node] = {}
        self._const_changes: Dict[Hashable, int] = {}
        self._widened: Set[Hashable] = set()
        #: name of the first sampled variable stored in each slot
        self._slot_vars: Dict[Hashable, str] = {}

    # -- front-end hooks -----------------------------------------------

    def initial_state(self) -> Dict[Hashable, AbsVal]:
        return {}

    def instant(self, state: Dict[Hashable, AbsVal]) -> Dict[Hashable, AbsVal]:
        """Evaluate one abstract instant from the slot values ``state``,
        registering its random variables in ``self.record``; return the
        slot values of the next state."""
        raise NotImplementedError

    def slot_name(self, key: Hashable) -> str:
        """How diagnostics and carried markers name a state slot."""
        raise NotImplementedError

    def slot_site(self, key: Hashable) -> Site:
        return self.model_site

    def lints(self) -> None:
        """Front-end diagnostics that need every instant evaluated."""

    # -- what an instant reports ---------------------------------------

    def diag(self, code: str, message: str, site: Site) -> None:
        diagnostic = make_diagnostic(code, message, site)
        if diagnostic not in self.diagnostics:
            self.diagnostics.append(diagnostic)

    def sample(self, dist: AbsVal, site: Site) -> AbsRV:
        return AbsRV(self._new_rv(dist, site, "sample").uid)

    def observe(self, dist: AbsVal, site: Site) -> None:
        rv = self._new_rv(dist, site, "observe")
        if not rv.parents and not self.particle_depth:
            self.diag(
                UNUSED_OBSERVE,
                f"observe({rv.family}(...)) conditions no latent variable — "
                "every particle receives the same weight (posterior-neutral)",
                site,
            )

    def value(self, val: AbsVal) -> AbsVal:
        """``value(val)``: realize the random variables ``val`` depends
        on; the result is a per-particle concrete value."""
        bases = rvs(val)
        for uid in bases:
            if uid in self.record.nodes:
                self.record.nodes[uid].realized = True
        self.record.forced += len(bases)
        if is_concrete(val):
            return val
        return AbsDerived(forced=True, inputy=flag(val, "inputy"))

    def output(self, val: AbsVal, site: Site) -> None:
        """The instant's output ``val``. The scalar engines lift a tuple
        output as a product of marginals; the batched engines stack it
        as one array, which they cannot tell apart from per-particle
        rows, so a tuple output keeps the model off them (REP010)."""
        if isinstance(val, AbsTuple):
            self.diag(
                UNLIFTABLE_OUTPUT,
                "the output is a tuple — the batched backend cannot lift "
                "it (scalar engines still can)",
                site,
            )
            self.batchable_ok = False

    def branch_verdict(self, cond: AbsVal, site: Site) -> Optional[bool]:
        """The arm a branch on ``cond`` takes, or None when both arms
        must be analyzed. A symbolic condition (REP009) or a per-particle
        one (REP002) defeats lockstep batching; an input-dependent one
        is lockstep-safe."""
        if is_concrete(cond):
            return bool(concrete(cond))
        if rvs(cond):
            self.symbolic_use(site)
        elif flag(cond, "forced"):
            self.diag(
                LOCKSTEP_BRANCH,
                "control flow branches on a per-particle forced value — "
                "the batched backend cannot run this model in lockstep "
                "(scalar engines still can)",
                site,
            )
            self.batchable_ok = False
        return None

    def symbolic_use(self, site: Site) -> None:
        """A branch or comparison needs the concrete value of a random
        variable: every delayed sampler raises there (REP009)."""
        self.diag(
            SYMBOLIC_BRANCH,
            "control flow depends on a symbolic value — every delayed "
            "sampler raises here; force it with value() first",
            site,
        )
        self.batchable_ok = False

    def both_arms(
        self, cond: AbsVal, then_arm: Callable[[], Any], else_arm: Callable[[], Any]
    ) -> Tuple[Any, Any]:
        """Run both arms of an unresolved branch from the same root
        count; the instant keeps the larger arm's roots."""
        record = self.record
        per_particle = bool(rvs(cond)) or flag(cond, "forced")
        self.particle_depth += per_particle
        roots = record.roots
        try:
            then_out = then_arm()
            then_roots, record.roots = record.roots, roots
            else_out = else_arm()
        finally:
            self.particle_depth -= per_particle
        record.roots = max(then_roots, record.roots)
        return then_out, else_out

    def _new_rv(self, dist: AbsVal, site: Site, kind: str) -> Node:
        if not isinstance(dist, AbsDist):
            raise Inconclusive(f"{kind} of a non-distribution value at {site}")
        parents = sorted(rvs(dist))
        observed = kind == "observe"
        rv = Node(
            uid=next(self._uids),
            name=f"{dist.family}@{site.line}",
            family=dist.family,
            kind=kind,
            root=not parents and not observed,
            site=site,
            parents=parents,
            observed=observed,
            realized=observed,
        )
        record = self.record
        record.nodes[rv.uid] = rv
        record.families.add(dist.family)
        record.roots += rv.root
        for p in parents:
            if p in record.nodes:
                record.nodes[p].children.append(rv.uid)
        if parents:
            self._link(rv, dist)
        return rv

    def _link(self, rv: Node, dist: AbsDist) -> None:
        """Classify the conjugacy of the parent edge; realize on failure."""
        record = self.record
        kind, conjugate = classify_dist_edge(record, dist)
        parent_names = ",".join(
            record.nodes[p].name if p in record.nodes else str(p)
            for p in rv.parents
        )
        edge = EdgeInfo(
            parent=parent_names, child=rv.name, kind=kind,
            conjugate=conjugate, site=rv.site,
        )
        record.edges.append(edge)
        if conjugate:
            return
        # Predicted per-slot realize-and-continue: the delayed sampler
        # realizes the parent(s) before this site runs.
        record.realize_sites.append(edge)
        for p in rv.parents:
            if p in record.nodes:
                record.nodes[p].realized = True
        record.forced += len(rv.parents)
        self.diag(
            NONCONJUGATE_EDGE,
            f"non-conjugate dependence of {rv.family}({parent_names}) — "
            "the delayed sampler realizes the parent here (one forced "
            "realization per parent per instant)",
            rv.site,
        )

    # -- the fixpoint --------------------------------------------------

    def analyze(self) -> ModelAnalysis:
        # Imported lazily: importing the analysis does not load the
        # batched runtime.
        from repro.vectorized.sds_graph import FAMILY_KERNELS

        state = self.initial_state()
        families: Set[str] = set()
        max_roots = 0
        prev_sig = None
        slot_uids: Dict[Hashable, int] = {}
        anc: Dict[Hashable, Set[Hashable]] = {}
        for _ in range(MAX_ABSTRACT_STEPS):
            self.record = record = StepRecord()
            # carried markers of the incoming state resolve by uid for
            # family lookups and consumption marking.
            for val in state.values():
                for uid in rvs(val):
                    if uid in self._carried:
                        record.nodes[uid] = self._carried[uid]
            next_state = self.instant(state)
            families |= record.families
            max_roots = max(max_roots, record.roots)
            anc = self._ancestry(record, next_state, slot_uids, anc)
            sig = _signature(next_state)
            if sig == prev_sig:
                break
            prev_sig = sig
            state, slot_uids = self._carry(record, state, next_state)
        else:
            raise Inconclusive(
                f"state structure of {self.name!r} did not stabilize within "
                f"{MAX_ABSTRACT_STEPS} instants"
            )

        bounded = self._check_bounded(record, next_state, slot_uids, anc)
        self.lints()
        for family in sorted(families - FAMILY_KERNELS.keys()):
            self.diag(
                NONBATCHABLE_FAMILY,
                f"family {family!r} has no batched kernels — the model "
                "cannot run on the vectorized DS graph",
                self.model_site,
            )
        batchable = (
            self.batchable_ok and bool(families) and families <= FAMILY_KERNELS.keys()
        )
        graph = StepGraph(
            nodes=tuple(
                RVNode(n.uid, n.name, n.family, n.kind, n.root, n.site)
                for n in record.nodes.values()
            ),
            edges=tuple(record.edges),
            observed=tuple(u for u, n in record.nodes.items() if n.observed),
            realized=tuple(u for u, n in record.nodes.items() if n.realized),
            sample_roots=max_roots,
        )
        return ModelAnalysis(
            conclusive=True,
            batchable=batchable,
            bounded=bounded,
            families=frozenset(families),
            shape="tree" if max_roots >= 2 else "chain",
            forced=record.forced,
            step_graph=graph,
            realize_sites=tuple(record.realize_sites),
            diagnostics=tuple(self.diagnostics),
            name=self.name,
        )

    def _ancestry(
        self,
        record: StepRecord,
        next_state: Dict[Hashable, AbsVal],
        slot_uids: Dict[Hashable, int],
        anc: Dict[Hashable, Set[Hashable]],
    ) -> Dict[Hashable, Set[Hashable]]:
        """Slot-level ancestry: which slots' variables live in the
        transitive past of each slot's next variable."""
        uid_to_slot = {uid: key for key, uid in slot_uids.items()}
        fresh_to_slot: Dict[int, Hashable] = {}
        for key, val in next_state.items():
            for uid in rvs(val):
                node = record.nodes.get(uid)
                if node is not None and node.kind != "carried":
                    fresh_to_slot.setdefault(uid, key)
                    self._slot_vars.setdefault(key, node.name)
        new_anc: Dict[Hashable, Set[Hashable]] = {}
        for key, val in next_state.items():
            acc: Set[Hashable] = set()
            for uid in rvs(val):
                if uid in uid_to_slot:  # carried marker moving slots
                    src = uid_to_slot[uid]
                    acc |= {src} | anc.get(src, set())
                elif uid in record.nodes:  # fresh variable
                    for carried_slot in record.carried_ancestors(uid):
                        acc |= {carried_slot} | anc.get(carried_slot, set())
                    for parent_uid in record.nodes[uid].parents:
                        parent_slot = fresh_to_slot.get(parent_uid)
                        if parent_slot is not None and parent_slot != key:
                            acc.add(parent_slot)
            new_anc[key] = acc
        return new_anc

    def _carry(
        self,
        record: StepRecord,
        state: Dict[Hashable, AbsVal],
        next_state: Dict[Hashable, AbsVal],
    ) -> Tuple[Dict[Hashable, AbsVal], Dict[Hashable, int]]:
        """The next instant's incoming state: random variables flowing
        into a slot become a carried marker; constant slots that change
        on consecutive instants (step counters, accumulators) are
        widened to an opaque non-random value after the second change —
        one change is the normal first-instant behaviour of an ``->``
        guard — so the state signature can reach a fixpoint."""
        carried: Dict[Hashable, AbsVal] = {}
        slot_uids: Dict[Hashable, int] = {}
        for key, val in next_state.items():
            bases = rvs(val)
            if not bases:
                carried[key] = self._widen(key, state.get(key), val)
                continue
            family = next(
                (record.nodes[u].family for u in sorted(bases) if u in record.nodes), ""
            )
            marker = Node(
                uid=next(self._uids),
                name=self.slot_name(key),
                family=family,
                kind="carried",
                root=False,
                site=self.slot_site(key),
                slot=key,
            )
            self._carried[marker.uid] = marker
            slot_uids[key] = marker.uid
            if isinstance(val, AbsRV):
                carried[key] = AbsRV(marker.uid)
            else:
                carried[key] = AbsDerived(
                    rvs=frozenset((marker.uid,)),
                    forced=flag(val, "forced"),
                    inputy=flag(val, "inputy"),
                )
        return carried, slot_uids

    def _widen(self, key: Hashable, prev: Optional[AbsVal], val: AbsVal) -> AbsVal:
        if key in self._widened:
            return AbsDerived() if isinstance(val, AbsConst) else val
        if (
            isinstance(val, AbsConst)
            and isinstance(prev, AbsConst)
            and repr(prev.value) != repr(val.value)
        ):
            self._const_changes[key] = self._const_changes.get(key, 0) + 1
            if self._const_changes[key] >= 2:
                self._widened.add(key)
                return AbsDerived()
        return val

    def _check_bounded(
        self,
        record: StepRecord,
        next_state: Dict[Hashable, AbsVal],
        slot_uids: Dict[Hashable, int],
        anc: Dict[Hashable, Set[Hashable]],
    ) -> bool:
        """Whether the steady-state instant keeps memory bounded."""
        uid_to_slot = {uid: key for key, uid in slot_uids.items()}
        # shift map: the carried variable of slot p lands in slots succ[p]
        succ: Dict[Hashable, Set[Hashable]] = {}
        chain_slots: Set[Hashable] = set()
        for key, val in next_state.items():
            for uid in rvs(val):
                if uid in uid_to_slot:
                    succ.setdefault(uid_to_slot[uid], set()).add(key)
                elif uid in record.nodes and record.nodes[uid].kind != "carried":
                    chain_slots.add(key)

        def slot_consumed(key: Hashable) -> bool:
            uid = slot_uids.get(key)
            return uid is not None and record.consumed(uid)

        def eventually_consumed(start: Set[Hashable]) -> bool:
            seen: Set[Hashable] = set()
            frontier = set(start)
            while frontier:
                frontier -= seen
                if any(slot_consumed(k) for k in frontier):
                    return True
                seen |= frontier
                frontier = set().union(*(succ.get(k, set()) for k in frontier))
            return False

        def var(key: Hashable) -> str:
            return self._slot_vars.get(key) or self.slot_name(key)

        bounded = True
        # fresh sampled variables must be consumed, now or after a
        # bounded number of state shifts.
        for uid, node in record.nodes.items():
            if node.kind != "sample" or record.consumed(uid):
                continue
            dest = {k for k, v in next_state.items() if uid in rvs(v)}
            if not dest:
                self.diag(
                    DANGLING_RV,
                    f"sampled variable {node.name!r} is never observed, "
                    "realized, or carried — a dead draw",
                    node.site,
                )
                continue
            if not eventually_consumed(dest):
                bounded = False
                edge = " -> ".join(self.slot_name(k) for k in sorted(dest, key=repr))
                self.diag(
                    UNBOUNDED_MEMORY,
                    f"sampled variable {node.name!r} is never observed or "
                    f"realized on the {edge} step edge — the "
                    "delayed-sampling graph grows by one node per instant",
                    node.site,
                )

        # persistent never-consumed variables that anchor a growing chain
        # (the hmm_init pathology).
        for key in slot_uids:
            if key not in succ or eventually_consumed({key}):
                continue
            anchored = [q for q in chain_slots if key in anc.get(q, set())]
            if anchored:
                bounded = False
                chain = ", ".join(var(q) for q in anchored)
                self.diag(
                    UNBOUNDED_MEMORY,
                    f"variable {var(key)!r} is kept in the stream state but "
                    "never observed or realized, and it anchors the "
                    f"history of the growing chain ({chain}) — the "
                    "graph cannot collect the chain past an unrealized "
                    "ancestor (the hmm_init pathology of Section 5.3)",
                    self.slot_site(key),
                )
            else:
                self.diag(
                    DANGLING_RV,
                    f"variable {var(key)!r} is kept in the stream state forever "
                    "but never observed or realized — one permanent graph "
                    "node (bound the window with value() if intentional)",
                    self.slot_site(key),
                )
        return bounded


def analyze_safely(name: str, build: Callable[[], Analyzer]) -> ModelAnalysis:
    """``build().analyze()``, or an inconclusive verdict saying why the
    analysis could not see through the model."""
    try:
        return build().analyze()
    except Inconclusive as exc:
        reason = str(exc)
    except RecursionError:
        reason = "analysis recursion limit"
    except Exception as exc:  # model code run for real (init, concrete calls)
        reason = f"analysis failed with {type(exc).__name__}: {exc}"
    return ModelAnalysis(conclusive=False, reason=reason, name=name)
