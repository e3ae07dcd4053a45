"""muF: the first-order functional probabilistic core calculus (Fig. 10).

::

    d ::= let f = e | d d
    e ::= c | x | (e, e) | op(e) | e(e)
        | if e then e else e | let p = e in e | fun p -> e
        | sample(e) | observe(e, e) | factor(e) | infer((fun x -> e), e)
    p ::= x | (p, p)

muF terms are compiled to Python, not interpreted. :func:`eval_term`
turns a term into straight-line Python source once, compiles it with
``compile()`` and runs the result; :func:`eval_program`, which
:func:`repro.core.compiled.load` calls once per program, does so for
each top-level definition. Stepping a loaded node then runs ordinary
Python functions:

* every muF binder becomes a fresh Python local. muF names, constants,
  operators, patterns and subterms reach the generated code through a
  side table of module globals, never through its text; operators are
  looked up in :data:`~repro.core.ops.OPS` when evaluated;
* an immediately applied ``fun`` (Fig. 20 gives every sub-expression
  that shape) is compiled as a ``let``;
* every other ``fun`` gets one generated function ``(env, arg, ctx)``.
  The :class:`Closure` values built while a program steps (an ``infer``
  site's transition, for instance) reuse it; no code is generated on
  the step path;
* an ``if`` nested more than :data:`_MAX_DEPTH` deep moves its branches
  into functions of their own, since CPython rejects more than 100
  levels of indentation.

The generated source is registered with :mod:`linecache` under a
``<muF n>`` file name, so tracebacks through it show the code.

The generated code keeps the strict semantics of the calculus: terms
are evaluated left to right, the function of an application before its
argument; only the taken branch of an ``if`` runs, its condition forced
through ``ctx.value`` when it is symbolic; an unbound variable raises
:class:`~repro.errors.MuFRuntimeError` only when it is evaluated, as do
pattern mismatches, applications of non-functions, and probabilistic
operators outside a probabilistic context.

Probabilistic operators dispatch through a
:class:`~repro.runtime.node.ProbCtx`, so the same compiled term runs
under the importance sampler, the particle filter, or any delayed
sampler — the engine choice *is* the semantics of ``infer``
(Section 5).

``infer`` is "tailored for ProbZelus and always takes two arguments: a
transition function ... and a distribution of states": here the
distribution of states is the inference engine's particle set, threaded
as the deterministic state of the compiled ``infer`` expression.
"""

from __future__ import annotations

import hashlib
import itertools
import linecache
import pickle
import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.ops import apply_op
from repro.errors import MuFRuntimeError
from repro.runtime.node import ProbCtx, ProbNode
from repro.symbolic import is_symbolic

__all__ = [
    "MTerm",
    "MConst",
    "MVar",
    "MTuple",
    "MOp",
    "MApp",
    "MIf",
    "MLet",
    "MFun",
    "MSample",
    "MObserve",
    "MFactor",
    "MInfer",
    "MInferInit",
    "Pat",
    "PVar",
    "PTuple",
    "Closure",
    "MuFProgram",
    "MLetDef",
    "eval_term",
    "eval_program",
    "pretty",
]


# ----------------------------------------------------------------------
# patterns
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Pat:
    """Base class of patterns."""


@dataclass(frozen=True)
class PVar(Pat):
    name: str


@dataclass(frozen=True)
class PTuple(Pat):
    elems: Tuple[Pat, ...]


# ----------------------------------------------------------------------
# terms
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MTerm:
    """Base class of muF terms."""


@dataclass(frozen=True)
class MConst(MTerm):
    value: Any


@dataclass(frozen=True)
class MVar(MTerm):
    name: str


@dataclass(frozen=True)
class MTuple(MTerm):
    elems: Tuple[MTerm, ...]


@dataclass(frozen=True)
class MOp(MTerm):
    name: str
    args: Tuple[MTerm, ...]


@dataclass(frozen=True)
class MApp(MTerm):
    func: MTerm
    arg: MTerm


@dataclass(frozen=True)
class MIf(MTerm):
    cond: MTerm
    then_branch: MTerm
    else_branch: MTerm


@dataclass(frozen=True)
class MLet(MTerm):
    pat: Pat
    bound: MTerm
    body: MTerm


@dataclass(frozen=True)
class MFun(MTerm):
    pat: Pat
    body: MTerm


@dataclass(frozen=True)
class MSample(MTerm):
    dist: MTerm


@dataclass(frozen=True)
class MObserve(MTerm):
    dist: MTerm
    value: MTerm


@dataclass(frozen=True)
class MFactor(MTerm):
    score: MTerm


_infer_site_counter = itertools.count()


@dataclass(frozen=True)
class MInfer(MTerm):
    """``infer(fun x -> e, sigma)`` with engine configuration.

    ``site`` identifies the syntactic infer site, so that each site
    keeps one engine instance (and its random stream).
    """

    transition: MTerm
    state: MTerm
    particles: int = 100
    method: str = "pf"
    seed: Any = None
    site: int = field(default_factory=lambda: next(_infer_site_counter))


@dataclass(frozen=True)
class MInferInit(MTerm):
    """Allocation of an ``infer`` site's state: wraps the body's A()."""

    body_init: MTerm
    site: int


class _InferInitValue:
    """Runtime marker: the pre-first-step state of an infer site."""

    __slots__ = ("body_state",)

    def __init__(self, body_state: Any):
        self.body_state = body_state

    def __repr__(self) -> str:
        return f"_InferInitValue({self.body_state!r})"


class Closure:
    """A muF function value.

    ``code(env, arg, ctx)`` is the Python function generated for
    ``fun pat -> body``. It does not pickle, so a closure pickles as its
    ``(pat, body, env)`` payload and a key of the term (see
    :func:`_term_key`); unpickling looks the code up by that key and
    generates it once per process and term (see :func:`_closure_code`).
    """

    __slots__ = ("pat", "body", "env", "code")

    def __init__(self, pat: Pat, body: MTerm, env: Dict[str, Any], code: Callable):
        self.pat = pat
        self.body = body
        self.env = env
        self.code = code

    def __call__(self, value: Any, ctx: Optional[ProbCtx] = None) -> Any:
        return self.code(self.env, value, ctx)

    def __getstate__(self):
        key = _term_key(self)
        return None, {"pat": self.pat, "body": self.body, "env": self.env, "key": key}

    def __setstate__(self, state) -> None:
        slots = state[1]
        self.pat, self.body, self.env = slots["pat"], slots["body"], slots["env"]
        self.code = _closure_code(slots["key"], self.pat, self.body)

    def __repr__(self) -> str:
        return f"Closure({self.pat!r})"


class _ClosureModel(ProbNode):
    """Adapter: a muF transition closure as a :class:`ProbNode`.

    The closure is refreshed every step (it captures the step's
    environment, in particular the current input of the enclosing node),
    so the adapter holds it in a mutable slot written just before the
    engine steps.
    """

    def __init__(self, initial_state: Any):
        self.initial_state = initial_state
        self.current_closure: Optional[Closure] = None

    def init(self) -> Any:
        return self.initial_state

    def step(self, state: Any, inp: Any, ctx: ProbCtx) -> Tuple[Any, Any]:
        if self.current_closure is None:
            raise MuFRuntimeError("infer engine stepped without a transition closure")
        result = self.current_closure(state, ctx)
        if not (isinstance(result, tuple) and len(result) == 2):
            raise MuFRuntimeError(
                "an infer transition must return a (value, state) pair"
            )
        return result


class _EngineRegistry:
    """Per-evaluation registry of inference engines, one per infer site."""

    def __init__(self):
        self.engines: Dict[int, Any] = {}

    def engine_for(self, term: MInfer, initial_state: Any):
        from repro.inference.infer import infer as make_engine

        if term.site not in self.engines:
            model = _ClosureModel(initial_state)
            self.engines[term.site] = make_engine(
                model,
                n_particles=term.particles,
                method=term.method,
                seed=term.seed,
            )
        return self.engines[term.site]


_GLOBAL_REGISTRY_KEY = "__engines__"


# ----------------------------------------------------------------------
# run-time support of the generated code
# ----------------------------------------------------------------------

def _fail(message: str, *values: Any):
    """Raise ``message`` formatted with ``values``, at run time."""
    raise MuFRuntimeError(message.format(*values))


def _capture(env: Dict[str, Any], names: Tuple[str, ...], bound: Dict[str, Any]):
    """Environment of a closure built under local binders.

    ``names`` are the closure's free variables that no local binder
    covers; those bound in ``env`` now are copied, the others stay
    unbound.
    """
    captured = {name: env[name] for name in names if name in env}
    captured.update(bound)
    return captured


def _infer_step(registry: Any, term: MInfer, closure: Any, sigma: Any):
    if registry is None:
        raise MuFRuntimeError(
            "infer requires an engine registry; evaluate through eval_program "
            "or provide one under the __engines__ key"
        )
    if isinstance(sigma, _InferInitValue):
        engine = registry.engine_for(term, sigma.body_state)
        sigma = engine.init()
    else:
        engine = registry.engine_for(term, None)
    engine.model.current_closure = closure
    dist, sigma_next = engine.step(sigma, None)
    return dist, sigma_next


#: what every generated module sees besides its side table
_RUNTIME: Dict[str, Any] = {
    "Closure": Closure,
    "_InferInitValue": _InferInitValue,
    "_apply_op": apply_op,
    "_capture": _capture,
    "_fail": _fail,
    "_infer_step": _infer_step,
    "_is_symbolic": is_symbolic,
}


# ----------------------------------------------------------------------
# code generation
# ----------------------------------------------------------------------

#: deepest ``if`` nesting kept in one generated function (CPython allows
#: at most 100 indentation levels)
_MAX_DEPTH = 16

_unit_counter = itertools.count()


class _Unit:
    """The Python source generated for one muF term, and its side table.

    Compiling a term emits the statements that compute it and returns
    an atom holding its value: the name of a Python local or global, or
    ``()``. A scope maps the muF names bound around the term being
    compiled to atoms. A ``fun`` with an empty scope captures the
    evaluation environment itself (so top-level definitions see later
    ones); under binders it captures a copy, as the environment-passing
    reading of the calculus does. ``free`` collects the names the
    ``fun`` being generated reads from its environment.
    """

    def __init__(self) -> None:
        self.namespace: Dict[str, Any] = dict(_RUNTIME)
        self.functions: List[str] = []
        self.lines: List[str] = []
        self.depth = 0
        self.free: Set[str] = set()
        self._names = itertools.count()
        self._consts: Dict[int, str] = {}

    # -- names and side table ------------------------------------------
    def name(self, prefix: str) -> str:
        return f"_{prefix}{next(self._names)}"

    def const(self, value: Any) -> str:
        """A side-table global holding ``value``."""
        name = self._consts.get(id(value))
        if name is None:
            name = self._consts[id(value)] = self.name("k")
            self.namespace[name] = value
        return name

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    # -- functions -----------------------------------------------------
    def function(self, prefix: str, params, emit_body) -> str:
        """Generate one function; ``emit_body()`` returns its result."""
        name = self.name(prefix)
        saved = self.lines, self.depth
        self.lines, self.depth = [], 1
        self.emit(f"return {emit_body()}")
        self.functions.append(
            f"def {name}({', '.join(params)}):\n" + "\n".join(self.lines)
        )
        self.lines, self.depth = saved
        return name

    def root(self, term: MTerm) -> str:
        """``(env, ctx) -> value of term``."""
        return self.function("r", ("env", "ctx"), lambda: self.term(term, {}))

    def fun_code(self, pat: Pat, body: MTerm) -> Tuple[str, Set[str]]:
        """``(env, arg, ctx) -> value of body``, ``pat`` bound to ``arg``;
        and the names it reads from ``env``."""
        outer, self.free = self.free, set()
        name = self.function(
            "f", ("env", "arg", "ctx"),
            lambda: self.term(body, self.bind(pat, "arg", {})),
        )
        free, self.free = self.free, outer
        return name, free

    def build(self, entry: str) -> Callable:
        """Compile the generated functions and return ``entry``."""
        source = "\n\n".join(self.functions) + "\n"
        filename = f"<muF {next(_unit_counter)}>"
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
        exec(compile(source, filename, "exec"), self.namespace)
        function = self.namespace[entry]
        # the unit's functions share one namespace and die together
        weakref.finalize(function, linecache.cache.pop, filename, None)
        return function

    # -- patterns ------------------------------------------------------
    def bind(self, pat: Pat, value: str, scope: Dict[str, str]) -> Dict[str, str]:
        """``scope`` extended with ``pat`` matched against ``value``."""
        scope = dict(scope)
        self._bind(pat, value, scope)
        return scope

    def _bind(self, pat: Pat, value: str, scope: Dict[str, str]) -> None:
        if isinstance(pat, PVar):
            scope[pat.name] = value
        elif isinstance(pat, PTuple):
            for sub_pat, sub_value in zip(pat.elems, self.unpack(pat, value)):
                self._bind(sub_pat, sub_value, scope)
        else:
            self.emit(f"_fail('unknown pattern {{!r}}', {self.const(pat)})")

    def unpack(self, pat: PTuple, value: str) -> Tuple[str, ...]:
        """Check and unpack a run-time tuple into fresh locals."""
        arity = len(pat.elems)
        self.emit(
            f"if not (isinstance({value}, tuple) and len({value}) == {arity}): "
            f"_fail('pattern arity mismatch: {{!r}} against {{!r}}', "
            f"{self.const(pat)}, {value})"
        )
        locals_ = tuple(self.name("x") for _ in pat.elems)
        if locals_:
            self.emit(f"{', '.join(locals_)}, = {value}")
        return locals_

    # -- terms ---------------------------------------------------------
    def term(self, term: MTerm, scope: Dict[str, str]) -> str:
        # let-chains, and the immediately applied funs that are lets, are
        # walked in a loop: compiled terms nest hundreds of levels deep.
        while True:
            if isinstance(term, MLet):
                scope = self.bind(term.pat, self.term(term.bound, scope), scope)
                term = term.body
            elif isinstance(term, MApp) and isinstance(term.func, MFun):
                scope = self.bind(term.func.pat, self.term(term.arg, scope), scope)
                term = term.func.body
            else:
                return self.step(term, scope)

    def step(self, term: MTerm, scope: Dict[str, str]) -> str:
        if isinstance(term, MConst):
            return self.const(term.value)
        if isinstance(term, MVar):
            return self.var(term.name, scope)
        if isinstance(term, MTuple):
            elems = [self.term(e, scope) for e in term.elems]
            return self.call(_tuple(elems)) if elems else "()"
        if isinstance(term, MIf):
            return self.branch(term, scope)
        if isinstance(term, MFun):
            return self.closure(term, scope)
        if isinstance(term, MInfer):
            closure = self.term(term.transition, scope)
            sigma = self.term(term.state, scope)
            registry = self.registry(scope)
            return self.call(
                f"_infer_step({registry}, {self.const(term)}, {closure}, {sigma})"
            )
        if isinstance(term, (MSample, MObserve, MFactor)):
            return self.probabilistic(term, scope)
        if isinstance(term, MOp):
            args = _tuple([self.term(a, scope) for a in term.args])
            return self.call(f"_apply_op({self.const(term.name)}, {args})")
        if isinstance(term, MApp):
            func = self.term(term.func, scope)
            arg = self.term(term.arg, scope)
            self.emit(
                f"if not isinstance({func}, Closure): "
                f"_fail('application of a non-function: {{!r}}', {func})"
            )
            return self.call(f"{func}.code({func}.env, {arg}, ctx)")
        if isinstance(term, MInferInit):
            return self.call(f"_InferInitValue({self.term(term.body_init, scope)})")
        self.emit(f"_fail('unknown muF term {{!r}}', {self.const(term)})")
        return "None"

    def call(self, expression: str) -> str:
        local = self.name("t")
        self.emit(f"{local} = {expression}")
        return local

    def var(self, muf_name: str, scope: Dict[str, str]) -> str:
        if muf_name in scope:
            return scope[muf_name]
        self.free.add(muf_name)
        key = self.const(muf_name)
        return self.call(
            f"env[{key}] if {key} in env else _fail('unbound muF variable {{!r}}', {key})"
        )

    def registry(self, scope: Dict[str, str]) -> str:
        if _GLOBAL_REGISTRY_KEY in scope:
            return scope[_GLOBAL_REGISTRY_KEY]
        self.free.add(_GLOBAL_REGISTRY_KEY)
        return self.call(f"env.get({self.const(_GLOBAL_REGISTRY_KEY)})")

    def probabilistic(self, term: MTerm, scope: Dict[str, str]) -> str:
        # the context is checked before the operands are evaluated
        if isinstance(term, MSample):
            self.emit("if ctx is None: _fail('sample outside of a probabilistic context')")
            return self.call(f"ctx.sample({self.term(term.dist, scope)})")
        if isinstance(term, MObserve):
            self.emit("if ctx is None: _fail('observe outside of a probabilistic context')")
            dist = self.term(term.dist, scope)
            value = self.term(term.value, scope)
            self.emit(f"ctx.observe({dist}, {value})")
        else:
            self.emit("if ctx is None: _fail('factor outside of a probabilistic context')")
            self.emit(f"ctx.factor({self.term(term.score, scope)})")
        return "()"

    def closure(self, term: MFun, scope: Dict[str, str]) -> str:
        code, free = self.fun_code(term.pat, term.body)
        outer = tuple(sorted(n for n in free if n not in scope))
        self.free.update(outer)
        if not scope:
            env = "env"
        else:
            bound = ", ".join(
                f"{self.const(n)}: {scope[n]}" for n in sorted(free) if n in scope
            )
            env = "{" + bound + "}"
            if outer:
                env = f"_capture(env, {self.const(outer)}, {env})"
        return self.call(
            f"Closure({self.const(term.pat)}, {self.const(term.body)}, {env}, {code})"
        )

    def branch(self, term: MIf, scope: Dict[str, str]) -> str:
        cond = self.term(term.cond, scope)
        self.emit(
            f"if (ctx.value({cond}) if ctx is not None and hasattr(ctx, 'value') "
            f"and _is_symbolic({cond}) else {cond}):"
        )
        join = self.name("j")
        self.arm(term.then_branch, scope, join)
        self.emit("else:")
        self.arm(term.else_branch, scope, join)
        return join

    def arm(self, term: MTerm, scope: Dict[str, str], join: str) -> None:
        """One branch of an ``if``, its value assigned to ``join``: inline,
        or in a function of its own when deep."""
        self.depth += 1
        if self.depth < _MAX_DEPTH:
            value = self.term(term, scope)
        else:
            params = {n: self.name("p") for n in scope}
            name = self.function(
                "b", ("env", "ctx", *params.values()),
                lambda: self.term(term, params),
            )
            value = f"{name}(env, ctx{''.join(', ' + a for a in scope.values())})"
        self.emit(f"{join} = {value}")
        self.depth -= 1


def _tuple(atoms: List[str]) -> str:
    """Python source of the tuple of ``atoms``."""
    return "(" + "".join(atom + ", " for atom in atoms) + ")"


def _term_key(closure: Closure) -> bytes:
    """A digest of the pickle of ``closure``'s term.

    The pickle tells apart what ``==`` on terms does not (``1`` and
    ``1.0``, ``0.0`` and ``-0.0``). It is computed when a closure of
    this code is first pickled and kept on the code, so each term is
    pickled for its key once per process.
    """
    code = closure.code
    if not hasattr(code, "key"):
        term = pickle.dumps((closure.pat, closure.body), protocol=pickle.HIGHEST_PROTOCOL)
        code.key = hashlib.sha256(term).digest()
    return code.key


#: code generated for unpickled closures, by term key; past
#: :data:`_CLOSURE_CODE_LIMIT` terms the oldest entry is dropped
_CLOSURE_CODE: Dict[bytes, Callable] = {}
_CLOSURE_CODE_LIMIT = 256
_CLOSURE_CODE_LOCK = threading.Lock()


def _closure_code(key: bytes, pat: Pat, body: MTerm) -> Callable:
    """Code of ``fun pat -> body``, generated once per process and term."""
    with _CLOSURE_CODE_LOCK:
        code = _CLOSURE_CODE.get(key)
        if code is None:
            if len(_CLOSURE_CODE) >= _CLOSURE_CODE_LIMIT:
                del _CLOSURE_CODE[next(iter(_CLOSURE_CODE))]
            unit = _Unit()
            code = _CLOSURE_CODE[key] = unit.build(unit.fun_code(pat, body)[0])
            code.key = key
    return code


def eval_term(term: MTerm, env: Dict[str, Any], ctx: Optional[ProbCtx] = None) -> Any:
    """Evaluate a muF term: generate its code, compile it, run it once.

    ``ctx`` carries the probabilistic semantics; ``None`` means a
    deterministic context in which ``sample``/``observe``/``factor``
    raise. The ``fun`` values it returns carry code generated here.
    """
    unit = _Unit()
    return unit.build(unit.root(term))(env, ctx)


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MLetDef:
    """Top-level definition ``let f = e``."""

    name: str
    term: MTerm


@dataclass(frozen=True)
class MuFProgram:
    """A sequence of top-level definitions."""

    defs: Tuple[MLetDef, ...]


def eval_program(
    program: MuFProgram, ctx: Optional[ProbCtx] = None
) -> Dict[str, Any]:
    """Evaluate all definitions; returns the final global environment.

    Each definition is compiled to Python once, here.
    """
    env: Dict[str, Any] = {_GLOBAL_REGISTRY_KEY: _EngineRegistry()}
    for definition in program.defs:
        env[definition.name] = eval_term(definition.term, env, ctx)
    return env


# ----------------------------------------------------------------------
# pretty printer
# ----------------------------------------------------------------------

def pretty(term: MTerm, indent: int = 0) -> str:
    """Human-readable rendering of a muF term (for docs and debugging)."""
    pad = "  " * indent
    if isinstance(term, MConst):
        return f"{term.value!r}"
    if isinstance(term, MVar):
        return term.name
    if isinstance(term, MTuple):
        return "(" + ", ".join(pretty(e, indent) for e in term.elems) + ")"
    if isinstance(term, MOp):
        return f"{term.name}(" + ", ".join(pretty(a, indent) for a in term.args) + ")"
    if isinstance(term, MApp):
        return f"{pretty(term.func, indent)}({pretty(term.arg, indent)})"
    if isinstance(term, MIf):
        return (
            f"if {pretty(term.cond, indent)} "
            f"then {pretty(term.then_branch, indent)} "
            f"else {pretty(term.else_branch, indent)}"
        )
    if isinstance(term, MLet):
        return (
            f"let {pretty_pat(term.pat)} = {pretty(term.bound, indent)} in\n"
            f"{pad}{pretty(term.body, indent)}"
        )
    if isinstance(term, MFun):
        return f"fun {pretty_pat(term.pat)} ->\n{pad}  {pretty(term.body, indent + 1)}"
    if isinstance(term, MSample):
        return f"sample({pretty(term.dist, indent)})"
    if isinstance(term, MObserve):
        return f"observe({pretty(term.dist, indent)}, {pretty(term.value, indent)})"
    if isinstance(term, MFactor):
        return f"factor({pretty(term.score, indent)})"
    if isinstance(term, MInfer):
        return (
            f"infer[{term.method},{term.particles}]"
            f"({pretty(term.transition, indent)}, {pretty(term.state, indent)})"
        )
    if isinstance(term, MInferInit):
        return f"infer_init({pretty(term.body_init, indent)})"
    return repr(term)


def pretty_pat(pat: Pat) -> str:
    if isinstance(pat, PVar):
        return pat.name
    if isinstance(pat, PTuple):
        return "(" + ", ".join(pretty_pat(p) for p in pat.elems) + ")"
    return repr(pat)
