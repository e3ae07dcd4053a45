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
    map_leaves,
    rebuild_tuple,
    register_op,
    structure_rvars,
    zip_leaves,
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
    "map_leaves",
    "zip_leaves",
    "register_op",
    "structure_rvars",
    "AffineForm",
    "extract_affine",
]
