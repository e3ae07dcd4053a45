"""Symbolic expression terms and affine analysis for delayed sampling."""

from repro.symbolic.affine import AffineForm, extract_affine
from repro.symbolic.expr import (
    App,
    BatchConst,
    RVar,
    SymExpr,
    app,
    eval_expr,
    free_rvars,
    is_symbolic,
    rebuild_tuple,
    register_op,
    structure_rvars,
)

__all__ = [
    "SymExpr",
    "RVar",
    "BatchConst",
    "App",
    "app",
    "is_symbolic",
    "free_rvars",
    "eval_expr",
    "rebuild_tuple",
    "register_op",
    "structure_rvars",
    "AffineForm",
    "extract_affine",
]
