"""External operator table for the language.

The kernel treats arithmetic, comparisons, ``if``, distribution
constructors, and distribution accessors as *external operators*
(Section 3.1; footnote 3 for ``if``). This module is the single
registry both the co-iterative interpreter and compiled muF code use.

Operators receive already-evaluated arguments, which may be symbolic
under delayed sampling — the lifted implementations from
:mod:`repro.symbolic` and :mod:`repro.lang` handle both.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

import numpy as np

from repro.errors import EvaluationError
from repro.lang import lifted
from repro.symbolic import app as sym_app
from repro.symbolic import is_symbolic

__all__ = ["OPS", "apply_op", "register"]


def _if_op(cond: Any, then_val: Any, else_val: Any) -> Any:
    # `if` is strict: both branches are already evaluated; the condition
    # must be concrete (delayed-sampling contexts force it upstream).
    if is_symbolic(cond):
        raise EvaluationError(
            "the condition of `if` must be concrete; force it with value()"
        )
    return then_val if cond else else_val


def _mean(dist: Any) -> Any:
    return dist.mean()


def _variance(dist: Any) -> Any:
    return dist.variance()


def _lifted_binop(name: str) -> Callable:
    return lambda a, b: sym_app(name, a, b)


def _lifted_unop(name: str) -> Callable:
    return lambda a: sym_app(name, a)


def _concrete_cmp(fn: Callable, name: str) -> Callable:
    def op(a: Any, b: Any) -> Any:
        if is_symbolic(a) or is_symbolic(b):
            raise EvaluationError(
                f"comparison {name!r} needs concrete operands; force with value()"
            )
        return fn(a, b)

    return op


OPS: Dict[str, Callable] = {
    # arithmetic — symbolic-aware (builds App nodes when needed)
    "add": _lifted_binop("add"),
    "sub": _lifted_binop("sub"),
    "mul": _lifted_binop("mul"),
    "div": _lifted_binop("div"),
    "neg": _lifted_unop("neg"),
    "matvec": _lifted_binop("matvec"),
    "getitem": _lifted_binop("getitem"),
    "exp": _lifted_unop("exp"),
    "log": _lifted_unop("log"),
    "abs": _lifted_unop("abs"),
    # comparisons & logic — concrete only
    "gt": _concrete_cmp(lambda a, b: a > b, "gt"),
    "lt": _concrete_cmp(lambda a, b: a < b, "lt"),
    "ge": _concrete_cmp(lambda a, b: a >= b, "ge"),
    "le": _concrete_cmp(lambda a, b: a <= b, "le"),
    "eq": _concrete_cmp(lambda a, b: a == b, "eq"),
    "ne": _concrete_cmp(lambda a, b: a != b, "ne"),
    "and": _concrete_cmp(lambda a, b: bool(a) and bool(b), "and"),
    "or": _concrete_cmp(lambda a, b: bool(a) or bool(b), "or"),
    "not": lambda a: not a,
    "if": _if_op,
    # pairs
    "fst": lambda p: p[0],
    "snd": lambda p: p[1],
    # distribution constructors (lifted: symbolic parameters allowed)
    "gaussian": lifted.gaussian,
    "mv_gaussian": lifted.mv_gaussian,
    "beta": lifted.beta,
    "bernoulli": lifted.bernoulli,
    "binomial": lifted.binomial,
    "gamma": lifted.gamma,
    "poisson": lifted.poisson,
    "exponential": lifted.exponential,
    "uniform": lifted.uniform,
    "delta": lifted.delta,
    # distribution accessors (the paper's driver uses mean_float)
    "mean": _mean,
    "mean_float": lambda d: float(_mean(d)),
    "variance": _variance,
    # math helpers
    "sqrt": lambda a: float(np.sqrt(a)),
    "min": lambda a, b: min(a, b),
    "max": lambda a, b: max(a, b),
}


def register(name: str, fn: Callable) -> None:
    """Register a new external operator (visible to all evaluators)."""
    OPS[name] = fn


def apply_op(name: str, args: tuple) -> Any:
    """Apply operator ``name`` to evaluated arguments."""
    fn = OPS.get(name)
    if fn is None:
        raise EvaluationError(f"unknown external operator {name!r}")
    return fn(*args)
