"""Symbolic expression trees: overloading, folding, traversal, evaluation."""

from collections import namedtuple

import numpy as np
import pytest

from repro.errors import SymbolicError
from repro.symbolic import (
    App,
    RVar,
    app,
    eval_expr,
    free_rvars,
    is_symbolic,
    rebuild_tuple,
)

Point = namedtuple("Point", "x y")


class FakeNode:
    """Stand-in for a graph node."""

    def __init__(self, name):
        self.name = name


class TestConstantFolding:
    def test_concrete_args_fold(self):
        assert app("add", 1.0, 2.0) == 3.0
        assert app("mul", 3.0, 4.0) == 12.0
        assert app("neg", 5.0) == -5.0

    def test_symbolic_arg_builds_node(self):
        x = RVar(FakeNode("x"))
        expr = app("add", x, 1.0)
        assert isinstance(expr, App)
        assert expr.op == "add"

    def test_unknown_op_rejected(self):
        with pytest.raises(SymbolicError):
            app("frobnicate", 1.0, 2.0)


class TestOperatorOverloading:
    def test_arithmetic_builds_trees(self):
        x = RVar(FakeNode("x"))
        for expr in (x + 1, 1 + x, x - 1, 1 - x, x * 2, 2 * x, x / 2, 2 / x, -x):
            assert isinstance(expr, App)

    def test_getitem(self):
        x = RVar(FakeNode("x"))
        expr = x[0]
        assert isinstance(expr, App)
        assert expr.op == "getitem"

    def test_bool_raises(self):
        x = RVar(FakeNode("x"))
        with pytest.raises(SymbolicError):
            bool(x)
        with pytest.raises(SymbolicError):
            if x + 1:  # noqa: B015 — the point is that this raises
                pass


class TestIsSymbolic:
    def test_concrete_values(self):
        assert not is_symbolic(1.0)
        assert not is_symbolic("a")
        assert not is_symbolic((1.0, 2.0))
        assert not is_symbolic(np.zeros(3))

    def test_symbolic_values(self):
        x = RVar(FakeNode("x"))
        assert is_symbolic(x)
        assert is_symbolic(x + 1)
        assert is_symbolic((1.0, x))
        assert is_symbolic({"key": x})
        assert is_symbolic([1.0, (2.0, x)])


class TestFreeRVars:
    def test_collects_and_dedups(self):
        node_a, node_b = FakeNode("a"), FakeNode("b")
        x, y = RVar(node_a), RVar(node_b)
        expr = (x + y) * x
        found = free_rvars(expr)
        assert {rv.node for rv in found} == {node_a, node_b}

    def test_containers(self):
        node = FakeNode("a")
        found = free_rvars({"k": [(RVar(node), 1.0)]})
        assert [rv.node for rv in found] == [node]

    def test_concrete_empty(self):
        assert free_rvars((1.0, [2.0])) == []


class TestEvalExpr:
    def test_evaluates_tree(self):
        node = FakeNode("x")
        x = RVar(node)
        expr = (x + 1.0) * 2.0
        assert eval_expr(expr, lambda n: 3.0) == 8.0

    def test_matvec_and_getitem(self):
        node = FakeNode("z")
        z = RVar(node)
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        expr = app("getitem", app("matvec", m, z), 0)
        value = eval_expr(expr, lambda n: np.array([2.0, 3.0]))
        assert value == pytest.approx(5.0)

    def test_containers(self):
        node = FakeNode("x")
        result = eval_expr((RVar(node), [1.0, RVar(node)]), lambda n: 7.0)
        assert result == (7.0, [1.0, 7.0])

    def test_namedtuple_keeps_its_type(self):
        result = eval_expr(Point(RVar(FakeNode("x")), 2.0), lambda n: 7.0)
        assert type(result) is Point and result.x == 7.0


class TestRebuildTuple:
    def test_plain_tuple(self):
        assert rebuild_tuple((1, 2), [3, 4]) == (3, 4)

    def test_namedtuple(self):
        result = rebuild_tuple(Point(1, 2), [3, 4])
        assert type(result) is Point and result.y == 4

    def test_other_tuple_subclass(self):
        class Row(tuple):
            pass

        result = rebuild_tuple(Row((1, 2)), [3, 4])
        assert type(result) is Row and result == (3, 4)
