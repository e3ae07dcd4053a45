"""The kernel-AST front end: ahead-of-time analysis of surface programs.

Where :mod:`repro.analysis.absint` sees Python ``step`` functions, this
module sees :class:`~repro.core.ast.Program` after the Section-3.1
rewrites (``prepare_program``: expand automata, desugar
``->``/``pre``/``fby``, schedule, check). Equations are evaluated in
scheduled order over the values of :mod:`repro.analysis.verdict`,
``last x`` reads the state slot named by its ``init``, and the shared
:class:`~repro.analysis.verdict.Analyzer` iterates the instant until
the state structure stabilizes. The ``->``-rewrite's
``if last fst then e1 else e2`` resolves concretely (``fst`` is a real
boolean in the abstract state), so the first and steady instants fall
out naturally.

Surface-level lints with no Python analogue live here:

* ``REP006`` unreachable ``init`` — an ``init x = c`` whose ``last x``
  is never read (the initialization value is dead);
* ``REP007`` unguarded ``last`` — ``last x`` with no ``init x`` in
  scope (normally rejected by ``check_initialization``; reported as a
  diagnostic when linting unprepared programs).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.analysis.report import (
    UNGUARDED_LAST,
    UNREACHABLE_INIT,
    Diagnostic,
    ModelAnalysis,
    Site,
)
from repro.analysis.verdict import (
    DIST_FAMILIES,
    AbsConst,
    AbsDist,
    AbsInput,
    AbsRV,
    AbsTuple,
    AbsVal,
    Analyzer,
    Inconclusive,
    analyze_safely,
    arith,
    concrete,
    derived,
    is_concrete,
    join,
    rvs,
)
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
    Var,
    Where,
)

__all__ = [
    "analyze_node",
    "analyze_program",
    "lint_program",
]

#: symbolically lifted operators (repro.core.ops) with affine tracking
_ARITH = {"add", "sub", "mul", "div", "neg", "matvec", "getitem"}

#: concrete-only comparisons — raise on symbolic operands at runtime
_CMP = {"gt", "lt", "ge", "le", "eq", "ne", "and", "or", "not"}

_MAX_INLINE_DEPTH = 4


class _NodeAnalyzer(Analyzer):
    """Abstractly interpret one prepared node declaration."""

    def __init__(self, program: Program, decl: NodeDecl, file: str = ""):
        self.program = program
        self.decl = decl
        self.file = file
        super().__init__(decl.name, self.site())
        #: keys whose ``last`` was actually read at least once
        self.last_read: Set[str] = set()
        #: init sites for the unreachable-init lint: key -> human name
        self.init_names: Dict[str, str] = {}

    def site(self, name: str = "") -> Site:
        label = f"{self.decl.name}.{name}" if name else self.decl.name
        return Site(name=label, file=self.file)

    # -- the Analyzer hooks --------------------------------------------

    def instant(self, state: Dict[str, AbsVal]) -> Dict[str, AbsVal]:
        self.state, self.next_state = state, {}
        env = {p: AbsInput(path=p) for p in self.decl.param}
        self.output(self.eval(self.decl.body, env, scope="", depth=0), self.site())
        return self.next_state

    def slot_name(self, key: str) -> str:
        return self.init_names.get(key, key)

    def slot_site(self, key: str) -> Site:
        return self.site(self.slot_name(key))

    def lints(self) -> None:
        for key, human in self.init_names.items():
            # rewrite-generated guards (fst/pre temporaries) are owned by
            # the compiler, not the program author.
            if not human.startswith("_") and key not in self.last_read:
                self.diag(
                    UNREACHABLE_INIT,
                    f"init {human!r} is dead: last {human!r} is never "
                    "read, so the initialization value is unreachable",
                    self.site(human),
                )

    # -- expression evaluation -----------------------------------------

    def eval(self, expr: Expr, env: Dict[str, AbsVal], scope: str, depth: int) -> AbsVal:
        def sub(e: Expr) -> AbsVal:
            return self.eval(e, env, scope, depth)

        if isinstance(expr, Const):
            return AbsConst(expr.value)
        if isinstance(expr, Var):
            if expr.name in env:
                return env[expr.name]
            raise Inconclusive(f"unbound variable {expr.name!r} in {self.decl.name}")
        if isinstance(expr, Pair):
            return AbsTuple((sub(expr.first), sub(expr.second)))
        if isinstance(expr, Last):
            key = f"{scope}{expr.name}"
            self.last_read.add(key)
            if key not in self.state:
                self.diag(
                    UNGUARDED_LAST,
                    f"last {expr.name!r} has no init equation in scope",
                    self.site(expr.name),
                )
                raise Inconclusive(f"unguarded last {expr.name!r}")
            return self.state[key]
        if isinstance(expr, Where):
            return self.eval_where(expr, env, scope, depth)
        if isinstance(expr, Op):
            return self.eval_op(expr, env, scope, depth)
        if isinstance(expr, Sample):
            return self.sample(sub(expr.dist), self.site())
        if isinstance(expr, Observe):
            dist = sub(expr.dist)
            sub(expr.value)
            self.observe(dist, self.site())
            return AbsConst(())
        if isinstance(expr, Factor):
            sub(expr.score)
            return AbsConst(())
        if isinstance(expr, Infer):
            # a nested inference engine: its result is a concrete
            # distribution object, opaque to this analysis.
            return derived()
        if isinstance(expr, App):
            return self.eval_app(expr, env, scope, depth)
        if isinstance(expr, Present):
            return self.eval_branch(
                expr.cond, expr.then_branch, expr.else_branch, env, scope, depth
            )
        if isinstance(expr, Reset):
            # reset re-initializes state when the clock ticks; for the
            # steady-state graph the body's dataflow is what matters.
            sub(expr.every)
            return sub(expr.body)
        raise Inconclusive(
            f"unsupported kernel construct {type(expr).__name__} in {self.decl.name}"
        )

    def eval_where(self, expr, env, scope, depth):
        local = dict(env)
        inits = [eq for eq in expr.equations if isinstance(eq, InitEq)]
        defs = [eq for eq in expr.equations if isinstance(eq, Eq)]
        for init_eq in inits:
            key = f"{scope}{init_eq.name}"
            self.init_names.setdefault(key, init_eq.name)
            if key not in self.state:
                self.state[key] = AbsConst(init_eq.value.value)
        for eq in defs:
            value = self.eval(eq.expr, local, scope, depth)
            if isinstance(value, AbsRV):
                rv = self.record.nodes.get(value.uid)
                if rv is not None and rv.default_name and not eq.name.startswith("_"):
                    rv.name = eq.name
                    rv.default_name = False
            local[eq.name] = value
        for init_eq in inits:
            key = f"{scope}{init_eq.name}"
            self.next_state[key] = local.get(init_eq.name, self.state[key])
        return self.eval(expr.body, local, scope, depth)

    def eval_app(self, expr, env, scope, depth):
        if depth >= _MAX_INLINE_DEPTH:
            raise Inconclusive(
                f"node application nesting exceeds {_MAX_INLINE_DEPTH} "
                f"({self.decl.name} -> {expr.func})"
            )
        try:
            callee = self.program.decl(expr.func)
        except KeyError:
            raise Inconclusive(f"application of unknown node {expr.func!r}")
        arg = self.eval(expr.arg, env, scope, depth)
        inner_env: Dict[str, AbsVal] = {}
        if len(callee.param) == 1:
            inner_env[callee.param[0]] = arg
        elif isinstance(arg, AbsTuple) and len(arg.elems) == len(callee.param):
            for p, v in zip(callee.param, arg.elems):
                inner_env[p] = v
        elif isinstance(arg, AbsInput):
            for i, p in enumerate(callee.param):
                inner_env[p] = AbsInput(path=f"{arg.path}[{i}]")
        else:
            for p in callee.param:
                inner_env[p] = derived(arg)
        inner_scope = f"{scope}{expr.func}#{id(expr) % 100000}."
        return self.eval(callee.body, inner_env, inner_scope, depth + 1)

    def eval_op(self, expr, env, scope, depth):
        name = expr.name
        if name == "if":
            return self.eval_branch(*expr.args, env, scope, depth)
        args = tuple(self.eval(a, env, scope, depth) for a in expr.args)
        if name in DIST_FAMILIES:
            return AbsDist(name, args)
        if all(is_concrete(a) for a in args):
            from repro.core.ops import apply_op

            try:
                return AbsConst(apply_op(name, tuple(concrete(a) for a in args)))
            except Exception:
                return derived(*args)
        if name in _ARITH:
            return arith(name, args, self.record)
        if name in _CMP and any(rvs(a) for a in args):
            # concrete-only at runtime: symbolic operands raise under
            # every delayed sampler.
            self.symbolic_use(self.site())
        return derived(*args)

    def eval_branch(self, cond_e, then_e, else_e, env, scope, depth):
        cond = self.eval(cond_e, env, scope, depth)
        taken = self.branch_verdict(cond, self.site())
        if taken is not None:
            return self.eval(then_e if taken else else_e, env, scope, depth)
        # analyze both arms against snapshots of the next state and merge
        before = dict(self.next_state)

        def arm(e: Expr):
            self.next_state.clear()
            self.next_state.update(before)
            return self.eval(e, env, scope, depth), dict(self.next_state)

        (then_v, then_state), (else_v, _) = self.both_arms(
            cond, lambda: arm(then_e), lambda: arm(else_e)
        )
        for key, val in then_state.items():
            if key in self.next_state and self.next_state[key] != val:
                self.next_state[key] = join(self.next_state[key], val)
            else:
                self.next_state.setdefault(key, val)
        return join(then_v, else_v)


def analyze_node(
    program: Program, name: str, file: str = "", prepared: bool = False
) -> ModelAnalysis:
    """Analyze one node of a surface/kernel program.

    ``program`` may be raw surface syntax (the default — it is prepared
    with :func:`~repro.core.compiler.prepare_program` first) or already
    prepared (``prepared=True``).
    """
    try:
        if not prepared:
            from repro.core.compiler import prepare_program

            program = prepare_program(program)
        decl = program.decl(name)
    except KeyError:
        return ModelAnalysis(conclusive=False, reason=f"no node {name!r}", name=name)
    except Exception as exc:
        return ModelAnalysis(
            conclusive=False,
            reason=f"program does not compile: {type(exc).__name__}: {exc}",
            name=name,
        )
    return analyze_safely(name, lambda: _NodeAnalyzer(program, decl, file=file))


def analyze_program(
    program: Program, file: str = ""
) -> Dict[str, ModelAnalysis]:
    """Analyze every probabilistic node of a program.

    Returns ``{node_name: ModelAnalysis}`` for the nodes of kind P
    (deterministic nodes — including ones *running* inference —
    have no random variables to analyze).
    """
    from repro.core.compiler import prepare_program
    from repro.core.kinds import P, check_program

    try:
        prepared = prepare_program(program)
    except Exception as exc:
        return {
            decl.name: ModelAnalysis(
                conclusive=False,
                reason=f"program does not compile: {type(exc).__name__}: {exc}",
                name=decl.name,
            )
            for decl in program.decls
        }
    kinds = check_program(prepared)
    return {
        decl.name: analyze_node(prepared, decl.name, file=file, prepared=True)
        for decl in prepared.decls
        if kinds[decl.name] == P
    }


def lint_program(program: Program, file: str = "") -> List[Diagnostic]:
    """All diagnostics of every probabilistic node of ``program``."""
    diags: List[Diagnostic] = []
    for analysis in analyze_program(program, file=file).values():
        diags.extend(analysis.diagnostics)
    return diags
