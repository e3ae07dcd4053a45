"""Source-to-source rewrites: eliminating ``->``, ``pre``, and ``fby``.

Section 3.1 shows the transformation on the running example::

    x = 0 -> pre x + 1

becomes::

    x where rec init fst = true and init x = 0
      and fst = false and x = if last fst then 0 else last x + 1

The general scheme implemented here, applied per ``where`` block:

* ``e1 fby e2``  ==>  ``e1 -> pre e2``
* ``pre e``      ==>  ``last p`` plus equations ``init p = 0`` and
  ``p = e`` for a fresh ``p`` (the init value is irrelevant: the
  initialization analysis requires a ``->`` to guard the first instant),
* ``e1 -> e2``   ==>  ``if last fst then e1 else e2`` plus the shared
  per-block equations ``init fst = true`` and ``fst = false``.

Expressions outside any ``where`` (e.g. a bare node body) are wrapped in
one so the auxiliary equations have a home.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Tuple

from repro.core.ast import (
    App,
    Arrow,
    Const,
    Eq,
    Equation,
    Expr,
    Factor,
    Fby,
    Infer,
    InitEq,
    Last,
    NodeDecl,
    Observe,
    Op,
    Pair,
    PreE,
    Present,
    Program,
    Reset,
    Sample,
    SURFACE_ONLY,
    Var,
    Where,
)

__all__ = ["desugar_expr", "desugar_node", "desugar_program", "has_surface_sugar"]

def has_surface_sugar(expr: Expr) -> bool:
    """True if ``expr`` still contains ``->``, ``pre``, or ``fby``."""
    if isinstance(expr, SURFACE_ONLY):
        return True
    if isinstance(expr, Pair):
        return has_surface_sugar(expr.first) or has_surface_sugar(expr.second)
    if isinstance(expr, Op):
        return any(has_surface_sugar(a) for a in expr.args)
    if isinstance(expr, App):
        return has_surface_sugar(expr.arg)
    if isinstance(expr, Where):
        if has_surface_sugar(expr.body):
            return True
        return any(
            isinstance(eq, Eq) and has_surface_sugar(eq.expr) for eq in expr.equations
        )
    if isinstance(expr, Present):
        return (
            has_surface_sugar(expr.cond)
            or has_surface_sugar(expr.then_branch)
            or has_surface_sugar(expr.else_branch)
        )
    if isinstance(expr, Reset):
        return has_surface_sugar(expr.body) or has_surface_sugar(expr.every)
    if isinstance(expr, Sample):
        return has_surface_sugar(expr.dist)
    if isinstance(expr, Observe):
        return has_surface_sugar(expr.dist) or has_surface_sugar(expr.value)
    if isinstance(expr, Factor):
        return has_surface_sugar(expr.score)
    if isinstance(expr, Infer):
        return has_surface_sugar(expr.body)
    return False


class _BlockRewriter:
    """Rewrites the expressions of one ``where`` block.

    Auxiliary equations produced by the rewrite are collected and
    appended to the block. The ``fst`` flag equations are shared by all
    the arrows of the block.
    """

    def __init__(self, names: Iterator[int]):
        self.names = names
        self.extra: List[Equation] = []
        self._fst_name = None

    def _fresh(self, prefix: str) -> str:
        return f"_{prefix}{next(self.names)}"

    def _fst(self) -> str:
        if self._fst_name is None:
            self._fst_name = self._fresh("fst")
            self.extra.append(InitEq(self._fst_name, Const(True)))
            self.extra.append(Eq(self._fst_name, Const(False)))
        return self._fst_name

    def rewrite(self, expr: Expr) -> Expr:
        if isinstance(expr, Fby):
            return self.rewrite(Arrow(expr.first, PreE(expr.then)))
        if isinstance(expr, PreE):
            name = self._fresh("pre")
            inner = self.rewrite(expr.expr)
            self.extra.append(InitEq(name, Const(0.0)))
            self.extra.append(Eq(name, inner))
            return Last(name)
        if isinstance(expr, Arrow):
            first = self.rewrite(expr.first)
            then = self.rewrite(expr.then)
            return Op("if", (Last(self._fst()), first, then))
        if isinstance(expr, Pair):
            return Pair(self.rewrite(expr.first), self.rewrite(expr.second))
        if isinstance(expr, Op):
            return Op(expr.name, tuple(self.rewrite(a) for a in expr.args))
        if isinstance(expr, App):
            return App(expr.func, self.rewrite(expr.arg))
        if isinstance(expr, Present):
            return Present(
                self.rewrite(expr.cond),
                self.rewrite(expr.then_branch),
                self.rewrite(expr.else_branch),
            )
        if isinstance(expr, Reset):
            return Reset(self.rewrite(expr.body), self.rewrite(expr.every))
        if isinstance(expr, Sample):
            return Sample(self.rewrite(expr.dist))
        if isinstance(expr, Observe):
            return Observe(self.rewrite(expr.dist), self.rewrite(expr.value))
        if isinstance(expr, Factor):
            return Factor(self.rewrite(expr.score))
        if isinstance(expr, Infer):
            return Infer(
                _desugar(expr.body, self.names), expr.particles, expr.method,
                expr.seed,
            )
        if isinstance(expr, Where):
            return _desugar(expr, self.names)  # nested block: its own rewriter
        return expr


def _desugar(expr: Expr, names: Iterator[int]) -> Expr:
    if isinstance(expr, Where):
        rewriter = _BlockRewriter(names)
        body = rewriter.rewrite(expr.body)
        equations: Tuple[Equation, ...] = tuple(
            eq if isinstance(eq, InitEq) else Eq(eq.name, rewriter.rewrite(eq.expr))
            for eq in expr.equations
        )
        return Where(body, equations + tuple(rewriter.extra))
    if has_surface_sugar(expr):
        return _desugar(Where(expr, ()), names)
    rewriter = _BlockRewriter(names)
    result = rewriter.rewrite(expr)
    assert not rewriter.extra, "sugar-free rewrite must not add equations"
    return result


def desugar_expr(expr: Expr) -> Expr:
    """Eliminate all surface sugar from ``expr``.

    Sugar appearing outside any ``where`` causes the expression to be
    wrapped in one, giving the auxiliary equations a block to live in.
    Temporaries are numbered per call, so the result depends on
    ``expr`` alone.
    """
    return _desugar(expr, itertools.count())


def desugar_node(decl: NodeDecl) -> NodeDecl:
    """Desugar a node declaration's body."""
    return NodeDecl(decl.name, decl.param, desugar_expr(decl.body))


def desugar_program(program: Program) -> Program:
    """Desugar every node of a program, numbering temporaries per program."""
    names = itertools.count()
    return Program(
        tuple(
            NodeDecl(d.name, d.param, _desugar(d.body, names))
            for d in program.decls
        )
    )
