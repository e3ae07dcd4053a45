"""muF core calculus: compiled evaluation, patterns, probabilistic operators."""

import linecache
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core import muf
from repro.core.muf import (
    Closure,
    MApp,
    MConst,
    MFactor,
    MFun,
    MIf,
    MLet,
    MObserve,
    MOp,
    MSample,
    MTuple,
    MVar,
    PTuple,
    PVar,
    eval_term,
    pretty,
)
from repro.dists import Gaussian
from repro.errors import MuFRuntimeError
from repro.inference.contexts import SamplingCtx


class TestPatterns:
    def test_var_binding(self):
        term = MLet(PVar("x"), MConst(42), MVar("x"))
        assert eval_term(term, {}) == 42

    def test_tuple_binding(self):
        pat = PTuple((PVar("a"), PTuple((PVar("b"), PVar("c")))))
        body = MTuple((MVar("a"), MVar("b"), MVar("c")))
        assert eval_term(MLet(pat, MConst((1, (2, 3))), body), {}) == (1, 2, 3)
        bound = MTuple((MConst(1), MTuple((MConst(2), MConst(3)))))
        assert eval_term(MLet(pat, bound, body), {}) == (1, 2, 3)

    def test_arity_mismatch(self):
        pat = PTuple((PVar("a"), PVar("b")))
        with pytest.raises(MuFRuntimeError, match="arity mismatch"):
            eval_term(MLet(pat, MConst((1, 2, 3)), MVar("a")), {})
        with pytest.raises(MuFRuntimeError, match="arity mismatch"):
            eval_term(MLet(pat, MTuple((MConst(1),) * 3), MVar("a")), {})

    def test_type_mismatch(self):
        pat = PTuple((PVar("a"), PVar("b")))
        with pytest.raises(MuFRuntimeError, match="arity mismatch"):
            eval_term(MLet(pat, MConst([1, 2]), MVar("a")), {})
        with pytest.raises(MuFRuntimeError, match="arity mismatch"):
            eval_term(MLet(pat, MConst(5.0), MVar("a")), {})


class TestEvaluation:
    def test_const_var(self):
        assert eval_term(MConst(5), {}) == 5
        assert eval_term(MVar("x"), {"x": 7}) == 7

    def test_unbound_var(self):
        with pytest.raises(MuFRuntimeError):
            eval_term(MVar("missing"), {})

    def test_tuple_and_op(self):
        term = MTuple((MOp("add", (MConst(1.0), MConst(2.0))), MConst(0)))
        assert eval_term(term, {}) == (3.0, 0)

    def test_if_strict(self):
        term = MIf(MConst(True), MConst(1), MConst(2))
        assert eval_term(term, {}) == 1

    def test_let_and_fun(self):
        # let f = fun x -> x + 1 in f 41
        term = MLet(
            PVar("f"),
            MFun(PVar("x"), MOp("add", (MVar("x"), MConst(1)))),
            MApp(MVar("f"), MConst(41)),
        )
        assert eval_term(term, {}) == 42

    def test_closure_captures_env(self):
        term = MLet(
            PVar("y"),
            MConst(10),
            MLet(
                PVar("f"),
                MFun(PVar("x"), MOp("add", (MVar("x"), MVar("y")))),
                MLet(PVar("y"), MConst(999), MApp(MVar("f"), MConst(1))),
            ),
        )
        assert eval_term(term, {}) == 11  # lexical scoping

    def test_operators_resolved_when_evaluated(self):
        from repro.core.ops import OPS, register

        register("scale", lambda v: v * 3)
        known = eval_term(MFun(PVar("x"), MOp("scale", (MVar("x"),))), {})
        later = eval_term(MFun(PVar("x"), MOp("shift", (MVar("x"),))), {})
        try:
            assert known(2.0) == 6.0
            register("scale", lambda v: v * 30)
            register("shift", lambda v: v + 1)
            assert (known(2.0), later(2.0)) == (60.0, 3.0)
        finally:
            OPS.pop("scale", None)
            OPS.pop("shift", None)

    def test_top_level_closure_shares_env(self):
        # a binder elsewhere in the term does not make the fun copy env
        env = {}
        _, closure = eval_term(
            MTuple((MLet(PVar("a"), MConst(1), MVar("a")), MFun(PVar("x"), MVar("g")))),
            env,
        )
        env["g"] = "defined later"
        assert closure(0) == "defined later"

    def test_apply_non_function(self):
        with pytest.raises(MuFRuntimeError):
            eval_term(MApp(MConst(1), MConst(2)), {})


class TestProbabilisticOps:
    def test_sample_without_ctx_raises(self):
        with pytest.raises(MuFRuntimeError):
            eval_term(MSample(MConst(Gaussian(0.0, 1.0))), {})

    def test_sample_with_ctx(self, rng):
        ctx = SamplingCtx(rng)
        value = eval_term(MSample(MConst(Gaussian(0.0, 1.0))), {}, ctx)
        assert isinstance(value, float)

    def test_observe_updates_weight(self, rng):
        ctx = SamplingCtx(rng)
        eval_term(MObserve(MConst(Gaussian(0.0, 1.0)), MConst(0.5)), {}, ctx)
        assert ctx.log_weight == pytest.approx(Gaussian(0.0, 1.0).log_pdf(0.5))

    def test_factor_updates_weight(self, rng):
        ctx = SamplingCtx(rng)
        eval_term(MFactor(MConst(-2.0)), {}, ctx)
        assert ctx.log_weight == -2.0


class TestPickling:
    """Closures pickle as their terms; unpickling reuses generated code."""

    def test_unpickled_closures_share_code(self):
        fun = eval_term(MFun(PVar("x"), MOp("add", (MVar("x"), MConst(1.0)))), {})
        data = pickle.dumps(fun)
        first, second = pickle.loads(data), pickle.loads(data)
        assert first.code is second.code
        assert (first(1.0), second(2.0)) == (2.0, 3.0)

    def test_equal_terms_with_distinct_constants_keep_distinct_code(self):
        ints = eval_term(MFun(PVar("x"), MConst(1)), {})
        floats = eval_term(MFun(PVar("x"), MConst(1.0)), {})
        ints, floats = pickle.loads(pickle.dumps(ints)), pickle.loads(pickle.dumps(floats))
        assert type(ints(0)) is int and type(floats(0)) is float

    def test_code_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(muf, "_CLOSURE_CODE", {})
        monkeypatch.setattr(muf, "_CLOSURE_CODE_LIMIT", 2)
        for value in range(4):
            fun = eval_term(MFun(PVar("x"), MConst(float(value))), {})
            assert pickle.loads(pickle.dumps(fun))(0) == float(value)
        assert len(muf._CLOSURE_CODE) == 2

    def test_concurrent_unpickling_keeps_the_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(muf, "_CLOSURE_CODE", {})
        monkeypatch.setattr(muf, "_CLOSURE_CODE_LIMIT", 3)
        payloads = [
            pickle.dumps(eval_term(MFun(PVar("x"), MConst(float(v))), {})) for v in range(12)
        ]
        errors = []

        def unpickle_all():
            try:
                for _ in range(5):
                    for value, payload in enumerate(payloads):
                        assert pickle.loads(payload)(0) == float(value)
                        assert len(muf._CLOSURE_CODE) <= 3
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        workers = [threading.Thread(target=unpickle_all) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []


class TestPretty:
    def test_renders_terms(self):
        term = MLet(
            PVar("x"), MConst(1), MOp("add", (MVar("x"), MConst(2)))
        )
        text = pretty(term)
        assert "let x" in text
        assert "add" in text

    def test_renders_fun(self):
        text = pretty(MFun(PTuple((PVar("s"), PVar("x"))), MVar("s")))
        assert "fun (s, x)" in text


class TestCodeGenerationHazards:
    """muF names never reach the generated source; nesting stays bounded."""

    @pytest.mark.parametrize("name", ["a b", "x-1", "__import__('os')", "return"])
    def test_non_identifier_names(self, name):
        fun = MFun(PVar(name), MOp("add", (MVar(name), MConst(1.0))))
        term = MLet(PVar(name), MConst(2.0), MApp(fun, MVar(name)))
        assert eval_term(term, {}) == 3.0
        assert eval_term(MVar(name), {name: "free"}) == "free"

    def test_unbound_name_quoted_verbatim(self):
        name = "__import__('os').getcwd()"
        with pytest.raises(MuFRuntimeError) as info:
            eval_term(MTuple((MConst(1), MVar(name))), {})
        assert str(info.value) == f"unbound muF variable {name!r}"

    def test_unbound_name_raises_only_when_evaluated(self):
        term = MIf(MConst(True), MConst(1), MVar("missing"))
        assert eval_term(term, {}) == 1

    def test_untaken_branch_draws_nothing(self):
        draw = MSample(MConst(Gaussian(0.0, 1.0)))
        taken = SamplingCtx(np.random.default_rng(0))
        eval_term(MIf(MConst(False), draw, MConst(0.0)), {}, taken)
        fresh = np.random.default_rng(0)
        assert taken.rng.normal() == fresh.normal()

    def test_deeply_nested_present(self):
        from repro.core import load
        from repro.core.ast import Const, NodeDecl, Op, Present, Program, Var
        from repro.runtime import run

        # present (u > 0) then (present (u > 1) then ... else 88.) else 89.
        body = Var("u")
        for depth in range(90):
            cond = Op("gt", (Var("u"), Const(float(89 - depth))))
            body = Present(cond, body, Const(float(depth)))
        node = load(Program((NodeDecl("n", ("u",), body),))).det_node("n")
        assert run(node, [100.0, 50.5, -1.0]) == [100.0, 38.0, 89.0]
        # CPython allows 100 indentation levels: deep branches must move
        # into functions of their own instead of nesting further
        source = linecache.getlines(node._step.code.__code__.co_filename)
        depth = max((len(line) - len(line.lstrip(" "))) // 4 for line in source)
        assert depth < 30
