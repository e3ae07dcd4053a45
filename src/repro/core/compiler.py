"""Compilation of the ProbZelus kernel to muF (Fig. 11 / Fig. 20 / Fig. 21).

Each expression compiles to a muF function of type ``S -> T x S``
(:func:`compile_expr`, the paper's ``C``); its initial state is built by
the allocation function (:func:`alloc_expr`, the paper's ``A``). A node
declaration yields two muF definitions, ``f_step`` and ``f_init``.

The compilation is the same for deterministic and probabilistic
expressions (Lemma 4.1: kinds are preserved); the probabilistic
operators become muF's ``sample``/``observe``/``factor``, and ``infer``
becomes the two-argument muF ``infer`` threading the distribution of
states.

Deviation from the figure: our ``op`` and node parameters are n-ary, so
the state of ``op(e1, ..., en)`` is the tuple of the argument states
(the figure's unary case is the ``n = 1`` instance).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from repro.core.ast import (
    App,
    Const,
    Eq,
    Expr,
    Factor,
    Infer,
    InitEq,
    Last,
    NodeDecl,
    Observe,
    Op,
    Pair,
    Present,
    Program,
    Reset,
    Sample,
    SURFACE_ONLY,
    Var,
    Where,
)
from repro.core.kinds import check_program
from repro.core.muf import (
    MApp,
    MConst,
    MFactor,
    MFun,
    MIf,
    MInfer,
    MInferInit,
    MLet,
    MLetDef,
    MObserve,
    MOp,
    MSample,
    MTerm,
    MTuple,
    MuFProgram,
    MVar,
    Pat,
    PTuple,
    PVar,
)
from repro.core.rewrites import desugar_program
from repro.core.scheduling import check_initialization, schedule_node
from repro.errors import CompilationError

__all__ = ["Compiler", "compile_program", "prepare_program"]

def _let_pair(value_name: str, state_name: str, bound: MTerm, body: MTerm) -> MTerm:
    """``let (v, s) = bound in body``."""
    return MLet(PTuple((PVar(value_name), PVar(state_name))), bound, body)


def _param_pattern(params: Tuple[str, ...]) -> Pat:
    """Input pattern of a node: nested right pairs, matching ``Pair`` values.

    A node ``let node f (a, b, c) = e`` is applied as
    ``f (a, (b, c))`` — pairs nest to the right, as in the kernel where
    tuples are built from binary pairs.
    """
    if len(params) == 1:
        return PVar(params[0])
    head, tail = params[0], params[1:]
    return PTuple((PVar(head), _param_pattern(tail)))


def prepare_program(program: Program) -> Program:
    """Front end: expand automata, desugar, schedule, and check a program."""
    from repro.core.automata import expand_program

    program = expand_program(program)
    program = desugar_program(program)
    program = Program(tuple(schedule_node(d) for d in program.decls))
    check_program(program)
    for decl in program.decls:
        check_initialization(decl.body)
    return program


class Compiler:
    """Compiles a prepared (desugared, scheduled) program to muF."""

    def __init__(self, program: Program):
        self.program = program
        # One infer site id per Infer AST occurrence, shared by C and A.
        self._infer_sites: Dict[int, int] = {}
        self._site_counter = itertools.count(10_000)
        # Temporaries are numbered per compilation, so one program
        # always compiles to the same muF term.
        self._names = itertools.count()

    def _fresh(self, prefix: str) -> str:
        return f"_{prefix}{next(self._names)}"

    # ------------------------------------------------------------------
    def compile(self) -> MuFProgram:
        defs: List[MLetDef] = []
        for decl in self.program.decls:
            defs.append(MLetDef(f"{decl.name}_init", self.alloc_expr(decl.body)))
            defs.append(MLetDef(f"{decl.name}_step", self._compile_decl(decl)))
        return MuFProgram(tuple(defs))

    def _compile_decl(self, decl: NodeDecl) -> MTerm:
        # f_step = fun (s, x) -> C(e)(s)
        state_name = self._fresh("s")
        param_pat = _param_pattern(decl.param)
        body = MApp(self.compile_expr(decl.body), MVar(state_name))
        return MFun(PTuple((PVar(state_name), param_pat)), body)

    def _infer_site(self, expr: Infer) -> int:
        key = id(expr)
        if key not in self._infer_sites:
            self._infer_sites[key] = next(self._site_counter)
        return self._infer_sites[key]

    # ------------------------------------------------------------------
    # C(e): Fig. 20
    # ------------------------------------------------------------------
    def compile_expr(self, expr: Expr) -> MTerm:
        if isinstance(expr, SURFACE_ONLY):
            raise CompilationError(
                f"surface construct {type(expr).__name__} reached the compiler; "
                "run prepare_program first"
            )
        if isinstance(expr, Const):
            s = self._fresh("s")
            return MFun(PVar(s), MTuple((MConst(expr.value), MVar(s))))
        if isinstance(expr, Var):
            s = self._fresh("s")
            return MFun(PVar(s), MTuple((MVar(expr.name), MVar(s))))
        if isinstance(expr, Last):
            s = self._fresh("s")
            return MFun(PVar(s), MTuple((MVar(f"{expr.name}_last"), MVar(s))))
        if isinstance(expr, Pair):
            return self._compile_nary(
                (expr.first, expr.second),
                lambda vals: MTuple(tuple(vals)),
            )
        if isinstance(expr, Op):
            return self._compile_nary(
                expr.args, lambda vals: MOp(expr.name, tuple(vals))
            )
        if isinstance(expr, App):
            return self._compile_app(expr)
        if isinstance(expr, Where):
            return self._compile_where(expr)
        if isinstance(expr, Present):
            return self._compile_present(expr)
        if isinstance(expr, Reset):
            return self._compile_reset(expr)
        if isinstance(expr, Sample):
            s, mu = self._fresh("s"), self._fresh("mu")
            s2, v = self._fresh("s"), self._fresh("v")
            return MFun(
                PVar(s),
                _let_pair(
                    mu,
                    s2,
                    MApp(self.compile_expr(expr.dist), MVar(s)),
                    MLet(
                        PVar(v),
                        MSample(MVar(mu)),
                        MTuple((MVar(v), MVar(s2))),
                    ),
                ),
            )
        if isinstance(expr, Observe):
            s1, s2 = self._fresh("s"), self._fresh("s")
            v1, s1p = self._fresh("v"), self._fresh("s")
            v2, s2p = self._fresh("v"), self._fresh("s")
            return MFun(
                PTuple((PVar(s1), PVar(s2))),
                _let_pair(
                    v1,
                    s1p,
                    MApp(self.compile_expr(expr.dist), MVar(s1)),
                    _let_pair(
                        v2,
                        s2p,
                        MApp(self.compile_expr(expr.value), MVar(s2)),
                        MLet(
                            PVar(self._fresh("u")),
                            MObserve(MVar(v1), MVar(v2)),
                            MTuple((MConst(()), MTuple((MVar(s1p), MVar(s2p))))),
                        ),
                    ),
                ),
            )
        if isinstance(expr, Factor):
            s, v, sp = self._fresh("s"), self._fresh("v"), self._fresh("s")
            return MFun(
                PVar(s),
                _let_pair(
                    v,
                    sp,
                    MApp(self.compile_expr(expr.score), MVar(s)),
                    MLet(
                        PVar(self._fresh("u")),
                        MFactor(MVar(v)),
                        MTuple((MConst(()), MVar(sp))),
                    ),
                ),
            )
        if isinstance(expr, Infer):
            sigma = self._fresh("sigma")
            site = self._infer_site(expr)
            return MFun(
                PVar(sigma),
                MInfer(
                    self.compile_expr(expr.body),
                    MVar(sigma),
                    particles=expr.particles,
                    method=expr.method,
                    seed=expr.seed,
                    site=site,
                ),
            )
        raise CompilationError(f"cannot compile {type(expr).__name__}")

    def _compile_nary(self, args: Tuple[Expr, ...], make_value) -> MTerm:
        """Shared shape for pairs and operator applications."""
        state_names = [self._fresh("s") for _ in args]
        value_names = [self._fresh("v") for _ in args]
        next_names = [self._fresh("s") for _ in args]
        result: MTerm = MTuple(
            (
                make_value([MVar(v) for v in value_names]),
                MTuple(tuple(MVar(n) for n in next_names)),
            )
        )
        for arg, s, v, n in reversed(list(zip(args, state_names, value_names, next_names))):
            result = _let_pair(v, n, MApp(self.compile_expr(arg), MVar(s)), result)
        return MFun(PTuple(tuple(PVar(s) for s in state_names)), result)

    def _compile_app(self, expr: App) -> MTerm:
        s1, s2 = self._fresh("s"), self._fresh("s")
        v1, s1p = self._fresh("v"), self._fresh("s")
        v2, s2p = self._fresh("v"), self._fresh("s")
        return MFun(
            PTuple((PVar(s1), PVar(s2))),
            _let_pair(
                v1,
                s1p,
                MApp(self.compile_expr(expr.arg), MVar(s1)),
                _let_pair(
                    v2,
                    s2p,
                    MApp(MVar(f"{expr.func}_step"), MTuple((MVar(s2), MVar(v1)))),
                    MTuple((MVar(v2), MTuple((MVar(s1p), MVar(s2p))))),
                ),
            ),
        )

    def _compile_where(self, expr: Where) -> MTerm:
        inits = [eq for eq in expr.equations if isinstance(eq, InitEq)]
        defs = [eq for eq in expr.equations if isinstance(eq, Eq)]
        mem_names = [self._fresh("m") for _ in inits]
        eq_state_names = [self._fresh("s") for _ in defs]
        body_state = self._fresh("s")
        body_value, body_next = self._fresh("v"), self._fresh("s")
        eq_next_names = [self._fresh("s") for _ in defs]

        # innermost: the result tuple
        result: MTerm = MTuple(
            (
                MVar(body_value),
                MTuple(
                    (
                        MTuple(tuple(MVar(init.name) for init in inits)),
                        MTuple(tuple(MVar(n) for n in eq_next_names)),
                        MVar(body_next),
                    )
                ),
            )
        )
        # let (v, s') = C(body)(s) in result
        result = _let_pair(
            body_value,
            body_next,
            MApp(self.compile_expr(expr.body), MVar(body_state)),
            result,
        )
        # equations, innermost-last
        for eq, s_name, n_name in reversed(list(zip(defs, eq_state_names, eq_next_names))):
            v_name = self._fresh("v")
            result = _let_pair(
                v_name,
                n_name,
                MApp(self.compile_expr(eq.expr), MVar(s_name)),
                MLet(PVar(eq.name), MVar(v_name), result),
            )
        # x_last bindings from the memory slots
        for init, m_name in reversed(list(zip(inits, mem_names))):
            result = MLet(PVar(f"{init.name}_last"), MVar(m_name), result)
        pattern = PTuple(
            (
                PTuple(tuple(PVar(m) for m in mem_names)),
                PTuple(tuple(PVar(s) for s in eq_state_names)),
                PVar(body_state),
            )
        )
        return MFun(pattern, result)

    def _compile_present(self, expr: Present) -> MTerm:
        s, s1, s2 = self._fresh("s"), self._fresh("s"), self._fresh("s")
        v, sp = self._fresh("v"), self._fresh("s")
        v1, s1p = self._fresh("v"), self._fresh("s")
        v2, s2p = self._fresh("v"), self._fresh("s")
        then_branch = _let_pair(
            v1,
            s1p,
            MApp(self.compile_expr(expr.then_branch), MVar(s1)),
            MTuple((MVar(v1), MTuple((MVar(sp), MVar(s1p), MVar(s2))))),
        )
        else_branch = _let_pair(
            v2,
            s2p,
            MApp(self.compile_expr(expr.else_branch), MVar(s2)),
            MTuple((MVar(v2), MTuple((MVar(sp), MVar(s1), MVar(s2p))))),
        )
        return MFun(
            PTuple((PVar(s), PVar(s1), PVar(s2))),
            _let_pair(
                v,
                sp,
                MApp(self.compile_expr(expr.cond), MVar(s)),
                MIf(MVar(v), then_branch, else_branch),
            ),
        )

    def _compile_reset(self, expr: Reset) -> MTerm:
        s0, s1, s2 = self._fresh("s"), self._fresh("s"), self._fresh("s")
        v2, s2p = self._fresh("v"), self._fresh("s")
        v1, s1p = self._fresh("v"), self._fresh("s")
        return MFun(
            PTuple((PVar(s0), PVar(s1), PVar(s2))),
            _let_pair(
                v2,
                s2p,
                MApp(self.compile_expr(expr.every), MVar(s2)),
                _let_pair(
                    v1,
                    s1p,
                    MApp(
                        self.compile_expr(expr.body),
                        MOp("if", (MVar(v2), MVar(s0), MVar(s1))),
                    ),
                    MTuple((MVar(v1), MTuple((MVar(s0), MVar(s1p), MVar(s2p))))),
                ),
            ),
        )

    # ------------------------------------------------------------------
    # A(e): Fig. 21
    # ------------------------------------------------------------------
    def alloc_expr(self, expr: Expr) -> MTerm:
        if isinstance(expr, (Const, Var, Last)):
            return MConst(())
        if isinstance(expr, Pair):
            return MTuple((self.alloc_expr(expr.first), self.alloc_expr(expr.second)))
        if isinstance(expr, Op):
            return MTuple(tuple(self.alloc_expr(a) for a in expr.args))
        if isinstance(expr, App):
            return MTuple((self.alloc_expr(expr.arg), MVar(f"{expr.func}_init")))
        if isinstance(expr, Where):
            inits = [eq for eq in expr.equations if isinstance(eq, InitEq)]
            defs = [eq for eq in expr.equations if isinstance(eq, Eq)]
            return MTuple(
                (
                    MTuple(tuple(MConst(init.value.value) for init in inits)),
                    MTuple(tuple(self.alloc_expr(eq.expr) for eq in defs)),
                    self.alloc_expr(expr.body),
                )
            )
        if isinstance(expr, Present):
            return MTuple(
                (
                    self.alloc_expr(expr.cond),
                    self.alloc_expr(expr.then_branch),
                    self.alloc_expr(expr.else_branch),
                )
            )
        if isinstance(expr, Reset):
            return MTuple(
                (
                    self.alloc_expr(expr.body),
                    self.alloc_expr(expr.body),
                    self.alloc_expr(expr.every),
                )
            )
        if isinstance(expr, Sample):
            return self.alloc_expr(expr.dist)
        if isinstance(expr, Observe):
            return MTuple((self.alloc_expr(expr.dist), self.alloc_expr(expr.value)))
        if isinstance(expr, Factor):
            return self.alloc_expr(expr.score)
        if isinstance(expr, Infer):
            return MInferInit(self.alloc_expr(expr.body), self._infer_site(expr))
        raise CompilationError(f"cannot allocate {type(expr).__name__}")


def compile_program(program: Program, prepared: bool = False) -> MuFProgram:
    """Front end + compilation: a muF program ready for evaluation."""
    if not prepared:
        program = prepare_program(program)
    return Compiler(program).compile()
