"""The Python front end: ahead-of-time analysis of ``ProbNode.step``.

This module parses a model's ``step`` function with :mod:`ast` and
abstractly interprets it over the values of
:mod:`repro.analysis.verdict`, tracking which values are random
variables, which are per-particle forced values, and which are stream
inputs — never drawing a sample, never touching an RNG, never needing
probe data. The slots of the stream state are tuple paths into the
returned state; the fixpoint over instants and every verdict come from
the shared :class:`~repro.analysis.verdict.Analyzer`.

Models whose code uses constructs the interpreter does not model
(unbounded loops, unknown calls receiving random variables, missing
source) yield ``conclusive=False``. A compiled surface node is not
interpreted here: :func:`analyze_model` hands its kernel program to
the kernel-AST front end.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import textwrap
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.core_ast import analyze_node
from repro.analysis.report import ModelAnalysis, Site
from repro.analysis.verdict import (
    DIST_FAMILIES,
    AbsConst,
    AbsDist,
    AbsInput,
    AbsRV,
    AbsTuple,
    AbsVal,
    Affine,
    Analyzer,
    Inconclusive,
    affine_of,
    analyze_safely,
    arith,
    concrete,
    derived,
    is_concrete,
    join,
    rvs,
)
from repro.core.compiled import CompiledProbNode

__all__ = ["analyze_model"]

#: longest loop the interpreter unrolls
MAX_UNROLL = 64


class _Return(Exception):
    def __init__(self, value):
        self.value = value


_CTX = object()  # sentinel bound to the ProbCtx parameter


def _to_abstract(value: Any) -> AbsVal:
    if isinstance(value, tuple):
        return AbsTuple(tuple(_to_abstract(v) for v in value))
    return AbsConst(value)


# ----------------------------------------------------------------------
# call whitelists and operators
# ----------------------------------------------------------------------

_COERCIONS = (float, int, bool, abs)

#: callables safe to run for real when every argument is concrete.
_SAFE_CONCRETE = (
    float, int, bool, abs, len, min, max, sum, range, tuple, list, dict,
    round, sorted, zip, enumerate, str,
)

#: Python operators and their lifted counterparts in repro.core.ops
_ARITH_NAMES = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div"}

_BINOPS = {
    ast.Add: lambda x, y: x + y,
    ast.Sub: lambda x, y: x - y,
    ast.Mult: lambda x, y: x * y,
    ast.Div: lambda x, y: x / y,
    ast.FloorDiv: lambda x, y: x // y,
    ast.Mod: lambda x, y: x % y,
    ast.Pow: lambda x, y: x ** y,
    ast.MatMult: lambda x, y: x @ y,
}

_COMPARISONS = {
    ast.Eq: lambda x, y: x == y,
    ast.NotEq: lambda x, y: x != y,
    ast.Lt: lambda x, y: x < y,
    ast.LtE: lambda x, y: x <= y,
    ast.Gt: lambda x, y: x > y,
    ast.GtE: lambda x, y: x >= y,
    ast.Is: lambda x, y: x is y or (x is None and y is None) or x == y is True,
    ast.IsNot: lambda x, y: not (x is y or (x is None and y is None)),
    ast.In: lambda x, y: x in y,
    ast.NotIn: lambda x, y: x not in y,
}


def _is_numpy_callable(fn: Any) -> bool:
    mod = getattr(fn, "__module__", "") or ""
    return mod == "numpy" or mod.startswith("numpy.")


# ----------------------------------------------------------------------
# state slots
# ----------------------------------------------------------------------

#: state slots: a tuple path into the state's nested tuples -> its value
_Slots = Dict[Tuple[int, ...], AbsVal]


def _flatten_state(val: AbsVal, path: Tuple[int, ...] = ()) -> _Slots:
    if isinstance(val, AbsTuple):
        out: _Slots = {}
        for i, e in enumerate(val.elems):
            out.update(_flatten_state(e, path + (i,)))
        return out
    return {path: val}


def _rebuild_state(val: AbsVal, slots: _Slots, path: Tuple[int, ...] = ()) -> AbsVal:
    if isinstance(val, AbsTuple):
        return AbsTuple(
            tuple(
                _rebuild_state(e, slots, path + (i,))
                for i, e in enumerate(val.elems)
            )
        )
    return slots.get(path, val)


# ----------------------------------------------------------------------
# the interpreter
# ----------------------------------------------------------------------

class _ModelAnalyzer(Analyzer, ast.NodeVisitor):
    """Abstractly execute a model's ``step``, one instant at a time."""

    def __init__(self, model: Any):
        self.model = model
        import repro.lang
        from repro.symbolic import app as sym_app

        self.families_by_id = {
            id(getattr(repro.lang, family)): family for family in DIST_FAMILIES
        }
        self.sym_app = sym_app
        self._load_step()
        name = type(model).__name__
        super().__init__(name, Site(name=name, file=self.file, line=self.first_line))

    # -- source loading ------------------------------------------------

    def _load_step(self) -> None:
        model = self.model
        from repro.runtime.node import FunProbNode

        if isinstance(model, FunProbNode):
            func = model._step_fn
            self.self_value: Optional[AbsVal] = None
        else:
            func = type(model).step
            self.self_value = AbsConst(model)
        func = inspect.unwrap(func)
        if hasattr(func, "__func__"):
            func = func.__func__
        try:
            source = textwrap.dedent(inspect.getsource(func))
            self.file = inspect.getsourcefile(func) or ""
            _, self.first_line = inspect.getsourcelines(func)
        except (OSError, TypeError) as exc:
            raise Inconclusive(f"no source available for step: {exc}")
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            raise Inconclusive(f"step source does not parse: {exc}")
        if not tree.body or not isinstance(tree.body[0], (ast.FunctionDef, ast.AsyncFunctionDef)):
            raise Inconclusive("step source is not a function definition")
        self.func_def = tree.body[0]
        self.globals = dict(getattr(func, "__globals__", {}))
        try:
            closure = inspect.getclosurevars(func)
            self.globals.update(closure.nonlocals)
        except (TypeError, ValueError):
            pass
        params = [a.arg for a in self.func_def.args.args]
        if self.self_value is not None:
            if not params or params[0] not in ("self",):
                raise Inconclusive("step does not take self")
            params = params[1:]
        if len(params) != 3:
            raise Inconclusive(
                f"step signature has {len(params)} parameters, expected "
                "(state, input, ctx)"
            )
        self.state_param, self.input_param, self.ctx_param = params

    def site(self, node: ast.AST) -> Site:
        line = getattr(node, "lineno", 0)
        return Site(
            name=self.name,
            file=self.file,
            line=self.first_line + line - 1 if line else 0,
        )

    # -- the Analyzer hooks --------------------------------------------

    def initial_state(self) -> _Slots:
        self.shape = _to_abstract(self.model.init())
        return _flatten_state(self.shape)

    def instant(self, state: _Slots) -> _Slots:
        self.env: Dict[str, AbsVal] = {
            self.state_param: _rebuild_state(self.shape, state),
            self.input_param: AbsInput(),
            self.ctx_param: _CTX,  # type: ignore[dict-item]
        }
        if self.self_value is not None:
            self.env["self"] = self.self_value
        try:
            self.run(self.func_def.body)
            out: AbsVal = AbsConst(None)
        except _Return as ret:
            out = ret.value
        if not isinstance(out, AbsTuple) or len(out.elems) != 2:
            raise Inconclusive("step does not return an (output, state) pair")
        self.output(out.elems[0], self.model_site)
        self.shape = out.elems[1]
        return _flatten_state(self.shape)

    def slot_name(self, path: Tuple[int, ...]) -> str:
        return f"state{list(path)}" if path else "state"

    # -- statements ----------------------------------------------------

    def run(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.visit(stmt)

    def generic_visit(self, node: ast.AST):
        raise Inconclusive(
            f"unsupported construct {type(node).__name__} at line "
            f"{getattr(node, 'lineno', '?')}"
        )

    def visit_Pass(self, node):  # noqa: N802
        pass

    def visit_Import(self, node):  # noqa: N802
        import importlib

        for alias in node.names:
            try:
                mod = importlib.import_module(alias.name)
            except ImportError as exc:
                raise Inconclusive(f"import failed at line {node.lineno}: {exc}")
            bind = alias.asname or alias.name.split(".")[0]
            if alias.asname is None and "." in alias.name:
                mod = importlib.import_module(alias.name.split(".")[0])
            self.env[bind] = AbsConst(mod)

    def visit_ImportFrom(self, node):  # noqa: N802
        import importlib

        if node.level:
            raise Inconclusive(f"relative import at line {node.lineno}")
        try:
            mod = importlib.import_module(node.module)
        except ImportError as exc:
            raise Inconclusive(f"import failed at line {node.lineno}: {exc}")
        for alias in node.names:
            if alias.name == "*":
                raise Inconclusive(f"star import at line {node.lineno}")
            try:
                value = getattr(mod, alias.name)
            except AttributeError:
                raise Inconclusive(
                    f"cannot import {alias.name!r} from {node.module!r} "
                    f"at line {node.lineno}"
                )
            self.env[alias.asname or alias.name] = AbsConst(value)

    def visit_Assert(self, node):  # noqa: N802
        pass

    def visit_Raise(self, node):  # noqa: N802
        # A raising path contributes nothing to the steady-state graph.
        pass

    def visit_Expr(self, node):  # noqa: N802
        self.eval(node.value)

    def visit_Assign(self, node):  # noqa: N802
        value = self.eval(node.value)
        for target in node.targets:
            self.assign(target, value)

    def visit_AnnAssign(self, node):  # noqa: N802
        if node.value is not None:
            self.assign(node.target, self.eval(node.value))

    def visit_AugAssign(self, node):  # noqa: N802
        current = self.eval(node.target)
        value = self.binop(node.op, current, self.eval(node.value), node)
        self.assign(node.target, value)

    def assign(self, target: ast.expr, value: AbsVal) -> None:
        if isinstance(target, ast.Name):
            if isinstance(value, AbsRV):
                rv = self.record.nodes.get(value.uid)
                if rv is not None and rv.default_name:
                    rv.name = target.id
                    rv.default_name = False
            self.env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            elems = None
            if isinstance(value, AbsTuple):
                elems = value.elems
            elif isinstance(value, AbsConst) and isinstance(value.value, (tuple, list)):
                elems = tuple(AbsConst(v) for v in value.value)
            elif isinstance(value, AbsInput):
                # destructuring the step input: each component is itself
                # an input-derived value shared by all particles.
                elems = tuple(
                    AbsInput(path=f"{value.path}[{i}]")
                    for i in range(len(target.elts))
                )
            if elems is None or len(elems) != len(target.elts):
                raise Inconclusive(
                    f"cannot destructure abstract value at line {target.lineno}"
                )
            for sub, el in zip(target.elts, elems):
                self.assign(sub, el)
            return
        raise Inconclusive(
            f"unsupported assignment target at line {getattr(target, 'lineno', '?')}"
        )

    def visit_Return(self, node):  # noqa: N802
        value = self.eval(node.value) if node.value is not None else AbsConst(None)
        raise _Return(value)

    def visit_If(self, node):  # noqa: N802
        cond = self.eval(node.test)
        taken = self.branch_verdict(cond, self.site(node))
        if taken is not None:
            self.run(node.body if taken else node.orelse)
            return
        env_before = self.env

        def arm(body: Sequence[ast.stmt]) -> Tuple[Optional[_Return], Dict[str, AbsVal]]:
            self.env = dict(env_before)
            try:
                self.run(body)
            except _Return as ret:
                return ret, self.env
            return None, self.env

        (then_ret, env_then), (else_ret, env_else) = self.both_arms(
            cond, lambda: arm(node.body), lambda: arm(node.orelse)
        )
        if then_ret is not None and else_ret is not None:
            raise _Return(join(then_ret.value, else_ret.value))
        if then_ret is not None or else_ret is not None:
            raise Inconclusive(f"return in only one branch at line {node.lineno}")
        self.env = {
            key: join(env_then[key], env_else[key])
            if key in env_then and key in env_else
            else env_then.get(key, env_else.get(key))
            for key in env_then.keys() | env_else.keys()
        }

    def visit_For(self, node):  # noqa: N802
        it = self.eval(node.iter)
        if not is_concrete(it):
            raise Inconclusive(
                f"loop over a non-concrete iterable at line {node.lineno}"
            )
        items = list(concrete(it))
        if len(items) > MAX_UNROLL:
            raise Inconclusive(
                f"loop of {len(items)} iterations exceeds the unroll cap "
                f"at line {node.lineno}"
            )
        for item in items:
            self.assign(node.target, _to_abstract(item))
            self.run(node.body)
        if node.orelse:
            self.run(node.orelse)

    def visit_While(self, node):  # noqa: N802
        raise Inconclusive(f"while-loop at line {node.lineno}")

    # -- expressions ---------------------------------------------------

    def eval(self, node: ast.expr) -> AbsVal:
        method = getattr(self, f"eval_{type(node).__name__}", None)
        if method is None:
            raise Inconclusive(
                f"unsupported expression {type(node).__name__} at line "
                f"{getattr(node, 'lineno', '?')}"
            )
        return method(node)

    def eval_Constant(self, node):  # noqa: N802
        return AbsConst(node.value)

    def eval_Name(self, node):  # noqa: N802
        if node.id in self.env:
            return self.env[node.id]
        if node.id in self.globals:
            return AbsConst(self.globals[node.id])
        if hasattr(builtins, node.id):
            return AbsConst(getattr(builtins, node.id))
        raise Inconclusive(f"unbound name {node.id!r} at line {node.lineno}")

    def eval_Tuple(self, node):  # noqa: N802
        return AbsTuple(tuple(self.eval(e) for e in node.elts))

    def eval_List(self, node):  # noqa: N802
        vals = [self.eval(e) for e in node.elts]
        if all(is_concrete(v) for v in vals):
            return AbsConst([concrete(v) for v in vals])
        return AbsTuple(tuple(vals))

    def eval_Dict(self, node):  # noqa: N802
        keys = [self.eval(k) if k is not None else None for k in node.keys]
        vals = [self.eval(v) for v in node.values]
        if all(k is not None and is_concrete(k) for k in keys) and all(
            is_concrete(v) for v in vals
        ):
            return AbsConst({concrete(k): concrete(v) for k, v in zip(keys, vals)})
        raise Inconclusive(f"non-concrete dict literal at line {node.lineno}")

    def eval_Attribute(self, node):  # noqa: N802
        base = self.eval(node.value)
        if base is _CTX:
            raise Inconclusive(f"ctx method {node.attr!r} used as a value")
        if isinstance(base, AbsConst):
            try:
                return AbsConst(getattr(base.value, node.attr))
            except AttributeError:
                raise Inconclusive(
                    f"unknown attribute {node.attr!r} at line {node.lineno}"
                )
        return derived(base)

    def eval_Subscript(self, node):  # noqa: N802
        base = self.eval(node.value)
        index = self.eval(node.slice)
        if isinstance(base, AbsConst) and is_concrete(index):
            try:
                return _to_abstract(base.value[concrete(index)])
            except Exception:
                raise Inconclusive(f"subscript failed at line {node.lineno}")
        if isinstance(base, AbsTuple) and is_concrete(index):
            idx = concrete(index)
            if isinstance(idx, int) and -len(base.elems) <= idx < len(base.elems):
                return base.elems[idx]
            raise Inconclusive(f"tuple index out of range at line {node.lineno}")
        if isinstance(base, AbsRV):
            rv = self.record.nodes.get(base.uid)
            if rv is not None and rv.family == "mv_gaussian":
                return derived(base, affine=Affine(base.uid, "projection"))
            return derived(base)
        if isinstance(base, AbsInput):
            return AbsInput(path=f"{base.path}[...]")
        return derived(base, index)

    def eval_UnaryOp(self, node):  # noqa: N802
        val = self.eval(node.operand)
        if is_concrete(val):
            op = {
                ast.USub: lambda v: -v,
                ast.UAdd: lambda v: +v,
                ast.Not: lambda v: not v,
                ast.Invert: lambda v: ~v,
            }[type(node.op)]
            return AbsConst(op(concrete(val)))
        if isinstance(node.op, (ast.USub, ast.UAdd)):
            return derived(val, affine=affine_of(val))
        return derived(val)

    def eval_BinOp(self, node):  # noqa: N802
        return self.binop(node.op, self.eval(node.left), self.eval(node.right), node)

    def binop(self, op: ast.operator, a: AbsVal, b: AbsVal, node: ast.AST) -> AbsVal:
        if is_concrete(a) and is_concrete(b):
            fn = _BINOPS.get(type(op))
            if fn is None:
                raise Inconclusive(f"operator {type(op).__name__} at line {getattr(node, 'lineno', '?')}")
            try:
                return AbsConst(fn(concrete(a), concrete(b)))
            except Exception:
                raise Inconclusive(
                    f"constant arithmetic failed at line {getattr(node, 'lineno', '?')}"
                )
        return arith(_ARITH_NAMES.get(type(op), ""), (a, b), self.record)

    def eval_BoolOp(self, node):  # noqa: N802
        vals = [self.eval(v) for v in node.values]
        if all(is_concrete(v) for v in vals):
            acc = [concrete(v) for v in vals]
            return AbsConst(all(acc) if isinstance(node.op, ast.And) else any(acc))
        return derived(*vals)

    def eval_Compare(self, node):  # noqa: N802
        left = self.eval(node.left)
        rights = [self.eval(c) for c in node.comparators]
        vals = [left] + rights
        if all(is_concrete(v) for v in vals):
            result = True
            cur = concrete(left)
            for op, r in zip(node.ops, rights):
                rv = concrete(r)
                result = result and bool(_COMPARISONS[type(op)](cur, rv))
                cur = rv
            return AbsConst(result)
        # `x is None` on values that can never be None resolves concretely:
        # a random variable, a tuple, or a carried marker is not None.
        if (
            len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Is, ast.IsNot))
            and isinstance(rights[0], AbsConst)
            and rights[0].value is None
            and isinstance(left, (AbsRV, AbsTuple, AbsDist))
        ):
            return AbsConst(isinstance(node.ops[0], ast.IsNot))
        return derived(*vals)

    def eval_IfExp(self, node):  # noqa: N802
        cond = self.eval(node.test)
        taken = self.branch_verdict(cond, self.site(node))
        if taken is not None:
            return self.eval(node.body if taken else node.orelse)
        return join(self.eval(node.body), self.eval(node.orelse))

    def eval_JoinedStr(self, node):  # noqa: N802
        return derived()

    def eval_Call(self, node):  # noqa: N802
        if node.keywords and any(k.arg is None for k in node.keywords):
            raise Inconclusive(f"**kwargs call at line {node.lineno}")
        # ctx.<op>(...) — the probabilistic operators.
        if isinstance(node.func, ast.Attribute):
            try:
                base = self.eval(node.func.value)
            except Inconclusive:
                base = None
            if base is _CTX:
                return self.ctx_call(node.func.attr, node)
        func = self.eval(node.func)
        if func is _CTX:
            raise Inconclusive(f"ctx used as a function at line {node.lineno}")
        args = [self.eval(a) for a in node.args]
        kwargs = {k.arg: self.eval(k.value) for k in node.keywords}
        if not isinstance(func, AbsConst):
            raise Inconclusive(f"call of a non-concrete function at line {node.lineno}")
        fn = func.value
        family = self.families_by_id.get(id(fn))
        if family is not None:
            return AbsDist(family, tuple(args) + tuple(kwargs.values()))
        if fn is self.sym_app:
            return self.sym_app_call(args, node)
        all_concrete = all(is_concrete(v) for v in args) and all(
            is_concrete(v) for v in kwargs.values()
        )
        if all_concrete and (fn in _SAFE_CONCRETE or _is_numpy_callable(fn)):
            try:
                result = fn(
                    *[concrete(a) for a in args],
                    **{k: concrete(v) for k, v in kwargs.items()},
                )
            except Exception as exc:
                raise Inconclusive(
                    f"concrete call {getattr(fn, '__name__', fn)!r} failed at "
                    f"line {node.lineno}: {exc}"
                )
            return AbsConst(result)
        # Abstract arguments: coercions preserve structure; numpy ufuncs
        # never branch Python control flow per element, so they fold to
        # a derived value. Anything else seeing a random variable is
        # beyond the analysis.
        if fn in _COERCIONS and len(args) == 1:
            return derived(args[0], affine=affine_of(args[0]))
        vals = list(args) + list(kwargs.values())
        if _is_numpy_callable(fn):
            if fn is np.asarray and args:
                return derived(*vals, affine=affine_of(args[0]))
            return derived(*vals)
        if any(rvs(v) for v in vals):
            raise Inconclusive(
                f"unknown call {getattr(fn, '__name__', fn)!r} receives a "
                f"random variable at line {node.lineno}"
            )
        return derived(*vals)

    def sym_app_call(self, args: List[AbsVal], node: ast.AST) -> AbsVal:
        if not args or not is_concrete(args[0]):
            raise Inconclusive(f"symbolic app with non-constant op at line {node.lineno}")
        operands = tuple(args[1:])
        if all(is_concrete(v) for v in operands):
            return derived(*operands)
        return arith(concrete(args[0]), operands, self.record)

    # -- the probabilistic operators ----------------------------------

    def ctx_call(self, name: str, node: ast.Call) -> AbsVal:
        args = [self.eval(a) for a in node.args]
        if name == "sample" and len(args) == 1:
            return self.sample(args[0], self.site(node))
        if name == "observe" and len(args) == 2:
            self.observe(args[0], self.site(node))
            return AbsConst(None)
        if name == "value" and len(args) == 1:
            return self.value(args[0])
        if name == "factor":
            return AbsConst(None)
        raise Inconclusive(
            f"unsupported ctx.{name} call with {len(args)} argument(s) "
            f"at line {node.lineno}"
        )


def analyze_model(model: Any) -> ModelAnalysis:
    """Statically analyze a :class:`~repro.runtime.node.ProbNode` instance.

    A compiled surface node that holds its kernel program
    (:class:`~repro.core.compiled.CompiledProbNode`) is analyzed there,
    by :func:`~repro.analysis.core_ast.analyze_node`: its generated muF
    code is opaque to this front end. Every other model is interpreted
    from its ``step`` source.

    Returns a :class:`~repro.analysis.report.ModelAnalysis`. Never
    raises for analysis-related reasons: models the interpreter cannot
    see through come back with ``conclusive=False`` and a ``reason``.
    """
    if isinstance(model, CompiledProbNode) and model.program is not None:
        return analyze_node(model.program, model.name, prepared=True)
    return analyze_safely(type(model).__name__, lambda: _ModelAnalyzer(model))
