"""Recursive-descent parser for the ProbZélus-like surface syntax.

Produces the kernel AST of :mod:`repro.core.ast` (with surface sugar,
which :func:`repro.core.compiler.prepare_program` eliminates). The
grammar follows the paper's concrete examples::

    program   ::= decl*
    decl      ::= "let" "node" IDENT params "=" expr
    params    ::= IDENT | "(" IDENT ("," IDENT)* ")" | "(" ")"
    expr      ::= where_expr
    where_expr::= arrow_expr ("where" "rec" equations)?
    equations ::= equation ("and" equation)*
    equation  ::= "init" IDENT "=" atom
                | IDENT "=" expr
                | "(" ")" "=" expr          (unit equation: fresh name)
    arrow_expr::= cmp_expr (("->"|"fby") arrow_expr)?
    cmp_expr  ::= add_expr (("<"|">"|"<="|">="|"="|"<>") add_expr)?
    add_expr  ::= mul_expr (("+"|"-") mul_expr)*
    mul_expr  ::= unary (("*"|"/") unary)*
    unary     ::= "-" unary | "pre" unary | "last" IDENT | postfix
    postfix   ::= atom atom*                 (application, left assoc)
    atom      ::= literal | IDENT | "(" expr ("," expr)* ")"
                | "if" expr "then" expr "else" expr
                | "present" expr "then" expr "else" expr
                | "reset" expr "every" expr
                | "sample" atom | "factor" atom
                | "observe" "(" expr "," expr ")"
                | "infer" NUMBER IDENT atom

Applications of known node names become :class:`~repro.core.ast.App`;
applications of anything else become external operator calls
(:class:`~repro.core.ast.Op`). Tuples are right-nested pairs, matching
the compiler's multi-parameter convention.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Set, Tuple

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
    Var,
    Where,
)
from repro.errors import LanguageError
from repro.frontend.lexer import Token, tokenize

__all__ = ["ParseError", "parse_program", "parse_expr"]


class ParseError(LanguageError):
    """Syntactically invalid input."""


_BINOPS = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "<": "lt",
    ">": "gt",
    "<=": "le",
    ">=": "ge",
    "=": "eq",
    "<>": "ne",
}

class _Parser:
    def __init__(self, tokens: List[Token], node_names: Set[str]):
        self.tokens = tokens
        self.pos = 0
        self.node_names = node_names
        # Temporaries are numbered per parse, so one source always
        # parses to the same program.
        self._units = itertools.count()

    # ------------------------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def at(self, kind: str, text: Optional[str] = None, ahead: int = 0) -> bool:
        token = self.peek(ahead)
        return token.kind == kind and (text is None or token.text == text)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise ParseError(
                f"expected {want!r}, found {token.text!r} at "
                f"{token.line}:{token.col}"
            )
        return self.next()

    def accept(self, kind: str, text: Optional[str] = None) -> bool:
        if self.at(kind, text):
            self.next()
            return True
        return False

    # ------------------------------------------------------------------
    def parse_program(self) -> Program:
        decls = []
        while not self.at("eof"):
            decls.append(self.parse_decl())
        return Program(tuple(decls))

    def parse_decl(self) -> NodeDecl:
        self.expect("keyword", "let")
        self.expect("keyword", "node")
        name = self.expect("ident").text
        params = self.parse_params()
        self.expect("symbol", "=")
        body = self.parse_expr()
        self.node_names.add(name)
        return NodeDecl(name, params, body)

    def parse_params(self) -> Tuple[str, ...]:
        if self.at("ident"):
            return (self.next().text,)
        self.expect("symbol", "(")
        if self.accept("symbol", ")"):
            return ("_unit_input",)
        names = [self.expect("ident").text]
        while self.accept("symbol", ","):
            names.append(self.expect("ident").text)
        self.expect("symbol", ")")
        return tuple(names)

    # ------------------------------------------------------------------
    def parse_expr(self) -> Expr:
        expr = self.parse_arrow()
        if self.accept("keyword", "where"):
            self.expect("keyword", "rec")
            equations = [self.parse_equation()]
            while self.at("keyword", "and"):
                self.next()
                equations.append(self.parse_equation())
            return Where(expr, tuple(equations))
        return expr

    def parse_equation(self) -> Equation:
        if self.accept("keyword", "init"):
            name = self.expect("ident").text
            self.expect("symbol", "=")
            value = self.parse_arrow()
            if isinstance(value, Const):
                return InitEq(name, value)
            # `init x = e` with a non-constant e: allowed in the surface
            # language; encoded as `x = e -> pre x` (the value computed
            # at the first instant, held forever after).
            return Eq(name, Arrow(value, PreE(Var(name))))
        if self.at("symbol", "(") and self.at("symbol", ")", ahead=1):
            self.next()
            self.next()
            self.expect("symbol", "=")
            name = f"_unit{next(self._units)}"
            return Eq(name, self.parse_arrow())
        name = self.expect("ident").text
        self.expect("symbol", "=")
        return Eq(name, self.parse_arrow())

    def parse_arrow(self) -> Expr:
        left = self.parse_cmp()
        if self.accept("symbol", "->"):
            return Arrow(left, self.parse_arrow())
        if self.accept("keyword", "fby"):
            return Fby(left, self.parse_arrow())
        return left

    def parse_cmp(self) -> Expr:
        left = self.parse_add()
        token = self.peek()
        if token.kind == "symbol" and token.text in ("<", ">", "<=", ">=", "=", "<>"):
            self.next()
            right = self.parse_add()
            return Op(_BINOPS[token.text], (left, right))
        return left

    def parse_add(self) -> Expr:
        expr = self.parse_mul()
        while self.at("symbol", "+") or self.at("symbol", "-"):
            op_text = self.next().text
            expr = Op(_BINOPS[op_text], (expr, self.parse_mul()))
        return expr

    def parse_mul(self) -> Expr:
        expr = self.parse_unary()
        while self.at("symbol", "*") or self.at("symbol", "/"):
            op_text = self.next().text
            expr = Op(_BINOPS[op_text], (expr, self.parse_unary()))
        return expr

    def parse_unary(self) -> Expr:
        if self.accept("symbol", "-"):
            return Op("neg", (self.parse_unary(),))
        if self.accept("keyword", "pre"):
            return PreE(self.parse_unary())
        if self.accept("keyword", "last"):
            return Last(self.expect("ident").text)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_atom()
        # juxtaposition application: f (e) or op (e1, e2)
        while self.at("symbol", "(") or self.at("ident") or self.at("number"):
            if not isinstance(expr, Var):
                break
            arg = self.parse_atom()
            expr = self._apply(expr.name, arg)
        return expr

    def _apply(self, func: str, arg: Expr) -> Expr:
        if func in self.node_names:
            return App(func, arg)
        # external operator: flatten tuple arguments
        args = _flatten_pair(arg)
        return Op(func, args)

    # ------------------------------------------------------------------
    def parse_atom(self) -> Expr:
        token = self.peek()
        if token.kind == "number":
            self.next()
            if "." in token.text or "e" in token.text or "E" in token.text:
                return Const(float(token.text))
            return Const(float(token.text))  # numerals are floats, OCaml-ish
        if token.kind == "keyword" and token.text in ("true", "false"):
            self.next()
            return Const(token.text == "true")
        if token.kind == "keyword":
            return self.parse_keyword_atom()
        if token.kind == "ident":
            self.next()
            return Var(token.text)
        if self.accept("symbol", "("):
            if self.accept("symbol", ")"):
                return Const(())
            exprs = [self.parse_expr()]
            while self.accept("symbol", ","):
                exprs.append(self.parse_expr())
            self.expect("symbol", ")")
            result = exprs[-1]
            for prev in reversed(exprs[:-1]):
                result = Pair(prev, result)
            return result
        raise ParseError(
            f"unexpected token {token.text!r} at {token.line}:{token.col}"
        )

    def parse_keyword_atom(self) -> Expr:
        token = self.peek()
        if self.accept("keyword", "if"):
            cond = self.parse_expr()
            self.expect("keyword", "then")
            then_branch = self.parse_expr()
            self.expect("keyword", "else")
            else_branch = self.parse_expr()
            return Op("if", (cond, then_branch, else_branch))
        if self.accept("keyword", "present"):
            cond = self.parse_expr()
            self.expect("keyword", "then")
            then_branch = self.parse_expr()
            self.expect("keyword", "else")
            else_branch = self.parse_expr()
            return Present(cond, then_branch, else_branch)
        if self.accept("keyword", "reset"):
            body = self.parse_expr()
            self.expect("keyword", "every")
            every = self.parse_expr()
            return Reset(body, every)
        if self.accept("keyword", "sample"):
            return Sample(self.parse_atom())
        if self.accept("keyword", "factor"):
            return Factor(self.parse_atom())
        if self.accept("keyword", "observe"):
            self.expect("symbol", "(")
            dist = self.parse_expr()
            self.expect("symbol", ",")
            value = self.parse_expr()
            self.expect("symbol", ")")
            return Observe(dist, value)
        if self.accept("keyword", "infer"):
            particles = 100
            if self.at("number"):
                particles = int(float(self.next().text))
            func = self.expect("ident").text
            arg = self.parse_atom()
            if func not in self.node_names:
                raise ParseError(f"infer of undeclared node {func!r}")
            return Infer(App(func, arg), particles=particles)
        if self.accept("keyword", "automaton"):
            return self.parse_automaton()
        raise ParseError(
            f"unexpected keyword {token.text!r} at {token.line}:{token.col}"
        )

    def parse_automaton(self) -> Expr:
        """``automaton | S -> do e until c then T ... | S' -> do e done``.

        Bodies are expressions; transitions are weak (Fig. 5's
        ``until ... then``). Guards may reference the mode's output
        through the reserved variable ``o``.
        """
        from repro.core.automata import AutomatonE, AutoStateE

        states = []
        while self.accept("symbol", "|"):
            name = self.expect("ident").text
            self.expect("symbol", "->")
            self.expect("keyword", "do")
            body = self.parse_expr()
            transitions = []
            while self.accept("keyword", "until"):
                cond = self.parse_expr()
                self.expect("keyword", "then")
                target = self.expect("ident").text
                transitions.append((cond, target))
            self.accept("keyword", "done")
            states.append(AutoStateE(name, body, tuple(transitions)))
        if not states:
            raise ParseError("automaton needs at least one '| State -> do ...'")
        return AutomatonE(tuple(states))


def _flatten_pair(expr: Expr) -> Tuple[Expr, ...]:
    """Right-nested pairs to an argument tuple (for operator calls)."""
    args: List[Expr] = []
    cursor = expr
    while isinstance(cursor, Pair):
        args.append(cursor.first)
        cursor = cursor.second
    args.append(cursor)
    return tuple(args)


def parse_program(source: str) -> Program:
    """Parse a whole program (a sequence of node declarations)."""
    parser = _Parser(tokenize(source), set())
    return parser.parse_program()


def parse_expr(source: str, node_names: Optional[Set[str]] = None) -> Expr:
    """Parse a single expression (for tests and the REPL-style API)."""
    parser = _Parser(tokenize(source), node_names or set())
    expr = parser.parse_expr()
    parser.expect("eof")
    return expr
