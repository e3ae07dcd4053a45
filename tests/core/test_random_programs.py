"""Property-based compiler testing: random programs, two semantics.

Hypothesis generates random well-kinded kernel programs and checks
Theorem 4.2 on each: the compiled muF term and the co-iterative
interpreter agree. Deterministic expressions cover arithmetic, ``->``,
``pre``, ``if``, ``present``, ``reset ... every``, ``last`` of an
``init`` memory and the application of a helper node; probabilistic
equations add Gaussian ``sample`` and ``observe``, under ``present``
and ``reset`` too. Kinds hold by construction (Fig. 7): ``sample``,
``observe``, ``pre`` and node arguments only ever get deterministic
operands, and a probabilistic helper is applied only where a
probabilistic expression may stand.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Interpreter, load
from repro.core.ast import (
    App,
    Arrow,
    Const,
    Eq,
    InitEq,
    Last,
    NodeDecl,
    Observe,
    Op,
    PreE,
    Present,
    Program,
    Reset,
    Sample,
    Var,
    Where,
)
from repro.inference.contexts import SamplingCtx
from repro.runtime import run

# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

_consts = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False).map(
    lambda v: Const(round(v, 3))
)


def _positive(e):
    return Op("gt", (e, Const(0.0)))


def _exprs(var_names, max_depth, lasts=(), helper=None):
    """Deterministic expressions over ``var_names`` (instantaneously
    readable), ``last m`` for the memories ``lasts``, and the node input
    ``u``; depth-bounded. ``helper`` names a deterministic node that may
    be applied."""
    leaves = [_consts, st.just(Var("u"))]
    if var_names:
        leaves.append(st.sampled_from([Var(n) for n in var_names]))
    if lasts:
        leaves.append(st.sampled_from([Last(m) for m in lasts]))
    leaf = st.one_of(*leaves)
    if max_depth <= 0:
        return leaf

    sub = _exprs(var_names, max_depth - 1, lasts, helper)

    def binop(name):
        return st.tuples(sub, sub).map(lambda pair: Op(name, pair))

    options = [
        leaf,
        binop("add"),
        binop("sub"),
        binop("mul"),
        st.tuples(sub, sub).map(lambda p: Arrow(p[0], p[1])),
        sub.map(PreE),
        st.tuples(sub, sub, sub).map(
            lambda t: Op("if", (_positive(t[0]), t[1], t[2]))
        ),
        st.tuples(sub, sub, sub).map(lambda t: Present(_positive(t[0]), t[1], t[2])),
        st.tuples(sub, sub).map(lambda t: Reset(t[0], _positive(t[1]))),
    ]
    if helper is not None:
        options.append(sub.map(lambda e: App(helper, e)))
    return st.one_of(*options)


def _samples(det, prob_helper):
    """Float-valued probabilistic expressions with deterministic operands."""
    variances = st.sampled_from([0.5, 1.0, 2.0]).map(Const)
    sample = st.tuples(det, variances).map(lambda t: Sample(Op("gaussian", t)))
    options = [
        sample,
        st.tuples(sample, det).map(lambda t: Op("add", t)),
        st.tuples(det, sample, det).map(lambda t: Present(_positive(t[0]), t[1], t[2])),
        st.tuples(det, det, sample).map(lambda t: Present(_positive(t[0]), t[1], t[2])),
        st.tuples(sample, det).map(lambda t: Reset(t[0], _positive(t[1]))),
    ]
    if prob_helper is not None:
        options.append(det.map(lambda e: App(prob_helper, e)))
    return st.one_of(*options)


def _observes(det):
    observe = st.tuples(det, det).map(
        lambda t: Observe(Op("gaussian", (t[0], Const(1.0))), t[1])
    )
    return st.one_of(
        observe,
        st.tuples(det, observe, observe).map(
            lambda t: Present(_positive(t[0]), t[1], t[2])
        ),
        st.tuples(observe, det).map(lambda t: Reset(t[0], _positive(t[1]))),
    )


@st.composite
def _bodies(draw, prob=False, helper=None, prob_helper=None):
    """A ``where`` block: a chain of equations, each reading earlier ones
    and the previous values of memories declared so far."""
    kinds = ["det", "memory"] + (["sample", "observe"] if prob else [])
    equations, names, lasts = [], [], []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(kinds))
        if kind == "memory":
            lasts.append(f"m{i}")
            equations.append(InitEq(f"m{i}", draw(_consts)))
        det = _exprs(tuple(names), 2 if prob else 3, tuple(lasts), helper)
        if kind == "observe":
            equations.append(Eq(f"o{i}", draw(_observes(det))))
            continue
        name = f"m{i}" if kind == "memory" else f"x{i}"
        expr = draw(_samples(det, prob_helper) if kind == "sample" else det)
        equations.append(Eq(name, expr))
        names.append(name)
    return Where(Var(names[-1]) if names else Var("u"), tuple(equations))


@st.composite
def programs(draw, prob=False):
    """Node ``n`` of input ``u``, maybe applying a helper node ``h``."""
    decls, helper, prob_helper = [], None, None
    if draw(st.booleans()):
        helper_is_prob = prob and draw(st.booleans())
        decls.append(NodeDecl("h", ("u",), draw(_bodies(prob=helper_is_prob))))
        if helper_is_prob:
            prob_helper = "h"
        else:
            helper = "h"
    body = draw(_bodies(prob=prob, helper=helper, prob_helper=prob_helper))
    decls.append(NodeDecl("n", ("u",), body))
    return Program(tuple(decls))


@st.composite
def input_streams(draw):
    return draw(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )


# ----------------------------------------------------------------------

def _close(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def _same(a, b):
    """Exact equality of nested values; NaN equals NaN."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return type(a) is type(b) and a == b


def _run_prob(node, inputs, seed):
    """Outputs, per-step log-weights and final state under one seeded
    sampling context."""
    ctx = SamplingCtx(np.random.default_rng(seed))
    state, outputs, weights = node.init(), [], []
    for inp in inputs:
        ctx.log_weight = 0.0
        out, state = node.step(state, inp, ctx)
        outputs.append(out)
        weights.append(ctx.log_weight)
    return tuple(outputs), tuple(weights), state


class TestCompiledEqualsInterpreted:
    @settings(max_examples=120, deadline=None)
    @given(prog=programs(), inputs=input_streams())
    def test_streams_identical(self, prog, inputs):
        compiled = load(prog).det_node("n")
        interpreted = Interpreter(prog).det_node("n")
        out_compiled = run(compiled, inputs)
        out_interpreted = run(interpreted, inputs)
        assert len(out_compiled) == len(out_interpreted)
        for a, b in zip(out_compiled, out_interpreted):
            assert _close(a, b), (prog, inputs, out_compiled, out_interpreted)

    @settings(max_examples=100, deadline=None)
    @given(
        prog=programs(prob=True),
        inputs=input_streams(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_probabilistic_runs_identical(self, prog, inputs, seed):
        compiled = _run_prob(load(prog).prob_node("n"), inputs, seed)
        interpreted = _run_prob(Interpreter(prog).prob_node("n"), inputs, seed)
        for part, a, b in zip(("outputs", "log-weights", "state"), compiled, interpreted):
            assert _same(a, b), (part, prog, inputs, a, b)

    @settings(max_examples=60, deadline=None)
    @given(prog=programs(), inputs=input_streams())
    def test_state_restart_consistency(self, prog, inputs):
        """Feeding a stream in two sessions through the saved state gives
        the same outputs as one session (state is fully externalized)."""
        compiled = load(prog).det_node("n")
        full = run(compiled, inputs)
        state = compiled.init()
        split_outputs = []
        for inp in inputs:
            out, state = compiled.step(state, inp)
            split_outputs.append(out)
        assert all(_close(a, b) for a, b in zip(full, split_outputs))

    @settings(max_examples=60, deadline=None)
    @given(prog=programs())
    def test_prepared_program_passes_static_checks(self, prog):
        from repro.core import check_program, check_types, prepare_program

        prepared = prepare_program(prog)
        kinds = check_program(prepared)
        assert kinds["n"] == "D"
        check_types(prepared)  # must not raise
