"""Symbolic expression terms for delayed sampling.

Under delayed sampling "any expression, probabilistic or deterministic,
can contribute to a symbolic term" (Section 5.2, Fig. 14): sampling does
not return a concrete value but a *reference to a random variable* in the
delayed-sampling graph, and arithmetic on such references builds symbolic
application nodes ``app(op, e)``.

Expressions here are plain immutable trees. Arithmetic operators are
overloaded so model code written for concrete floats (``mean = prev + 1``)
works unchanged when ``prev`` is symbolic. Constant folding keeps trees
small: combining two concrete values never allocates a node.

The three consumers of these trees are:

* the delayed-sampling contexts, which extract *affine forms*
  (:mod:`repro.symbolic.affine`) to detect conjugacy at ``assume`` time,
* ``value`` (forced realization), which samples every referenced random
  variable and then evaluates the tree numerically,
* ``distribution`` (Section 5.3), which lifts a tree to a closed-form
  distribution without realizing anything when the tree is affine in a
  single Gaussian variable.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Tuple

import numpy as np

from repro.errors import SymbolicError

__all__ = [
    "SymExpr",
    "RVar",
    "BatchConst",
    "App",
    "is_symbolic",
    "free_rvars",
    "eval_expr",
    "rebuild_tuple",
    "map_leaves",
    "zip_leaves",
    "structure_rvars",
]


class SymExpr:
    """Base class of symbolic expression nodes.

    Supports the numeric operator protocol so symbolic values compose
    transparently with concrete ones inside model code.
    """

    __slots__ = ()

    # -- operator overloading ------------------------------------------------
    def __add__(self, other):
        return app("add", self, other)

    def __radd__(self, other):
        return app("add", other, self)

    def __sub__(self, other):
        return app("sub", self, other)

    def __rsub__(self, other):
        return app("sub", other, self)

    def __mul__(self, other):
        return app("mul", self, other)

    def __rmul__(self, other):
        return app("mul", other, self)

    def __truediv__(self, other):
        return app("div", self, other)

    def __rtruediv__(self, other):
        return app("div", other, self)

    def __neg__(self):
        return app("neg", self)

    def __matmul__(self, other):
        return app("matvec", self, other)

    def __rmatmul__(self, other):
        return app("matvec", other, self)

    def __getitem__(self, index):
        return app("getitem", self, index)

    def __bool__(self):
        raise SymbolicError(
            "cannot branch on a symbolic value; realize it first with ctx.value(...)"
        )


class RVar(SymExpr):
    """A reference to a random-variable node in a delayed-sampling graph.

    The wrapped ``node`` is opaque to this module; the delayed-sampling
    package gives it meaning (state, marginal, pointers).
    """

    __slots__ = ("node",)

    def __init__(self, node: Any):
        self.node = node

    def __repr__(self) -> str:
        return f"RVar({self.node!r})"


class BatchConst(SymExpr):
    """A concrete *per-particle* constant inside a symbolic expression.

    The array-native delayed-sampling runtime threads whole-population
    arrays through model code written for scalars: after a forced
    realization, "the previous state" is one value per particle, i.e.
    an array with the particle index as leading axis. Wrapping it keeps
    ``is_symbolic`` true, so lifted constructors still produce
    :class:`~repro.lang.lifted.SymDist` terms and the batched ``assume``
    can turn ``gaussian(BatchConst(x), v)`` into a marginalized root
    with a per-particle mean — instead of a scalar ``Gaussian``
    constructor choking on an array parameter.

    In affine analysis it behaves as a constant (no random variable),
    and evaluation simply unwraps the array.
    """

    __slots__ = ("values",)

    def __init__(self, values: Any):
        self.values = np.asarray(values)

    def __repr__(self) -> str:
        return f"BatchConst(shape={self.values.shape})"


class App(SymExpr):
    """Application of a primitive operator to symbolic/concrete arguments."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, args: Tuple[Any, ...]):
        self.op = op
        self.args = args

    def __repr__(self) -> str:
        return f"App({self.op!r}, {self.args!r})"


# Primitive operator implementations used when a tree is evaluated with
# concrete values. ``matvec`` is matrix-vector application; ``getitem``
# extracts one component of a vector value.
_OP_IMPLS: dict = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "neg": lambda a: -a,
    "matvec": lambda m, v: np.asarray(m) @ np.asarray(v),
    "getitem": lambda v, i: v[i],
    "exp": lambda a: float(np.exp(a)),
    "log": lambda a: float(np.log(a)),
    "abs": lambda a: abs(a),
}


def register_op(name: str, impl: Callable) -> None:
    """Register a new primitive operator usable in symbolic trees."""
    _OP_IMPLS[name] = impl


def is_symbolic(value: Any) -> bool:
    """True when ``value`` is (or structurally contains) a symbolic expression."""
    if isinstance(value, SymExpr):
        return True
    if isinstance(value, (tuple, list)):
        return any(is_symbolic(v) for v in value)
    if isinstance(value, dict):
        return any(is_symbolic(v) for v in value.values())
    return False


def app(op: str, *args: Any) -> Any:
    """Build ``App(op, args)`` with constant folding.

    If no argument is symbolic the operator is applied immediately and a
    concrete value is returned, so symbolic nodes only exist where a
    random variable is actually involved.
    """
    if any(isinstance(a, SymExpr) for a in args):
        return App(op, tuple(args))
    impl = _OP_IMPLS.get(op)
    if impl is None:
        raise SymbolicError(f"unknown primitive operator {op!r}")
    return impl(*args)


def free_rvars(value: Any) -> List[RVar]:
    """All :class:`RVar` leaves in ``value`` (deduplicated by node, in order)."""
    seen: List[RVar] = []
    seen_ids = set()

    def walk(v: Any) -> None:
        if isinstance(v, RVar):
            if id(v.node) not in seen_ids:
                seen_ids.add(id(v.node))
                seen.append(v)
        elif isinstance(v, App):
            for a in v.args:
                walk(a)
        elif isinstance(v, (tuple, list)):
            for a in v:
                walk(a)
        elif isinstance(v, dict):
            for a in v.values():
                walk(a)

    walk(value)
    return seen


def eval_expr(value: Any, lookup: Callable[[Any], Any]) -> Any:
    """Evaluate a symbolic tree to a concrete value.

    ``lookup`` maps a graph node (the payload of an :class:`RVar`) to its
    concrete value; it is typically ``graph.value`` which realizes the
    variable on demand.
    """
    if isinstance(value, RVar):
        return lookup(value.node)
    if isinstance(value, BatchConst):
        return value.values
    if isinstance(value, App):
        impl = _OP_IMPLS.get(value.op)
        if impl is None:
            raise SymbolicError(f"unknown primitive operator {value.op!r}")
        return impl(*(eval_expr(a, lookup) for a in value.args))
    if isinstance(value, tuple):
        return rebuild_tuple(value, [eval_expr(v, lookup) for v in value])
    if isinstance(value, list):
        return [eval_expr(v, lookup) for v in value]
    if isinstance(value, dict):
        return {k: eval_expr(v, lookup) for k, v in value.items()}
    return value


def rebuild_tuple(value: tuple, items: List[Any]) -> tuple:
    """A tuple of ``value``'s own type holding ``items``.

    Model states may be tuple subclasses (namedtuples); rebuilding them
    as plain tuples would lose their field names.
    """
    cls = type(value)
    if cls is tuple:
        return tuple(items)
    make = getattr(cls, "_make", None)
    return make(items) if make is not None else cls(items)


def map_leaves(value: Any, fn: Callable[[Any], Any]) -> Any:
    """Rebuild a pytree of tuples, lists and dicts, applying ``fn`` to every leaf.

    Tuples keep their type, so a namedtuple state stays one.
    """
    if isinstance(value, tuple):
        items = [map_leaves(v, fn) for v in value]
        # Plain tuples skip the call: model states nest dozens of them.
        return tuple(items) if type(value) is tuple else rebuild_tuple(value, items)
    if isinstance(value, list):
        return [map_leaves(v, fn) for v in value]
    if isinstance(value, dict):
        return {k: map_leaves(v, fn) for k, v in value.items()}
    return fn(value)


def zip_leaves(values: List[Any], fn: Callable[[List[Any]], Any]) -> Any:
    """Rebuild parallel pytrees into one, applying ``fn`` to each leaf list.

    The structure (and tuple type) is the first pytree's.
    """
    head = values[0]
    if isinstance(head, tuple):
        items = [zip_leaves(list(parts), fn) for parts in zip(*values)]
        return tuple(items) if type(head) is tuple else rebuild_tuple(head, items)
    if isinstance(head, list):
        return [zip_leaves(list(parts), fn) for parts in zip(*values)]
    if isinstance(head, dict):
        return {k: zip_leaves([v[k] for v in values], fn) for k in head}
    return fn(values)


def structure_rvars(value: Any) -> Iterator[Any]:
    """Yield the graph nodes referenced anywhere inside ``value``."""
    for rv in free_rvars(value):
        yield rv.node
