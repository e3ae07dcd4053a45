"""``repro.analysis.lint`` — the programmatic face of ``replint``.

Three kinds of target, one diagnostic stream:

* **Python models** (:func:`lint_model`) — any
  :class:`~repro.runtime.node.ProbNode` instance, analyzed by the
  Python abstract interpreter.
* **Surface programs** (:func:`lint_source`, :func:`lint_path`) —
  ``.zls`` files in the paper's concrete syntax, or ``.py`` files whose
  module-level string literals contain surface programs (the style of
  ``examples/surface_language.py``). Python files are *parsed, never
  executed*: string constants that parse as a surface program are
  linted, everything else is ignored.
* **Registered bench models** (:func:`lint_bench_models`) — every
  model the benchmark layer registers with the vectorized backend,
  analyzed as Python models.

Every function returns :class:`~repro.analysis.report.Diagnostic`
records (or a ``{name: ModelAnalysis}`` map for the bench models);
:func:`lint_report` aggregates any mix of targets into the JSON
document the CLI emits with ``--format=json``.
"""

from __future__ import annotations

import ast as python_ast
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.absint import analyze_model
from repro.analysis.core_ast import lint_program
from repro.analysis.report import Diagnostic, ModelAnalysis

__all__ = [
    "lint_model",
    "lint_source",
    "lint_path",
    "lint_paths",
    "lint_bench_models",
    "bench_model_instances",
    "lint_report",
    "extract_surface_sources",
]


def lint_model(model: Any, name: str = "") -> List[Diagnostic]:
    """Diagnostics of one Python model instance."""
    analysis = analyze_model(model)
    return list(analysis.diagnostics)


def lint_source(source: str, file: str = "<string>") -> List[Diagnostic]:
    """Diagnostics of a surface-syntax program."""
    from repro.frontend import parse_program

    return lint_program(parse_program(source), file=file)


def extract_surface_sources(py_source: str) -> List[Tuple[int, str]]:
    """Module-level string literals of a Python file that parse as
    surface programs.

    Returns ``(lineno, source)`` pairs. The Python file is parsed with
    :mod:`ast`, never imported or executed; a string constant counts
    when it contains ``let node`` and the frontend accepts it.
    """
    from repro.frontend import parse_program

    out: List[Tuple[int, str]] = []
    try:
        tree = python_ast.parse(py_source)
    except SyntaxError:
        return out
    for node in python_ast.walk(tree):
        if not (isinstance(node, python_ast.Constant) and isinstance(node.value, str)):
            continue
        text = node.value
        if "let node" not in text:
            continue
        try:
            parse_program(text)
        except Exception:
            continue
        out.append((getattr(node, "lineno", 0), text))
    return out


def lint_path(path: str) -> List[Diagnostic]:
    """Diagnostics of one file: ``.zls`` surface syntax, or ``.py``
    with embedded surface-program string literals."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    rel = os.path.relpath(path)
    if path.endswith(".py"):
        diags: List[Diagnostic] = []
        for _, source in extract_surface_sources(text):
            diags.extend(lint_source(source, file=rel))
        return diags
    return lint_source(text, file=rel)


def lint_paths(paths: Sequence[str]) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for path in paths:
        diags.extend(lint_path(path))
    return diags


def bench_model_instances() -> Dict[str, Any]:
    """One instance of every model the benchmark layer registers with
    the vectorized backend (plus the raw scalar models they adapt)."""
    from repro.bench.models import (
        BoundedWalkModel,
        CoinModel,
        DirichletCategoricalModel,
        HmmInitModel,
        HmmModel,
        KalmanModel,
        MixedFragmentModel,
        OutlierModel,
        PoissonCountModel,
        WalkModel,
    )
    from repro.bench.robot import RobotModel
    from repro.vectorized.models import GraphOutlierModel

    return {
        "KalmanModel": KalmanModel(),
        "HmmModel": HmmModel(),
        "CoinModel": CoinModel(),
        "OutlierModel": OutlierModel(),
        "GraphOutlierModel": GraphOutlierModel(OutlierModel()),
        "HmmInitModel": HmmInitModel(),
        "WalkModel": WalkModel(),
        "BoundedWalkModel": BoundedWalkModel(),
        "PoissonCountModel": PoissonCountModel(),
        "DirichletCategoricalModel": DirichletCategoricalModel(),
        "MixedFragmentModel(realize=none)": MixedFragmentModel(realize="none"),
        "MixedFragmentModel(realize=one)": MixedFragmentModel(realize="one"),
        "MixedFragmentModel(realize=all)": MixedFragmentModel(realize="all"),
        "RobotModel": RobotModel(),
    }


def lint_bench_models() -> Dict[str, ModelAnalysis]:
    """Static analysis of every registered bench model."""
    return {
        name: analyze_model(model)
        for name, model in bench_model_instances().items()
    }


def lint_report(
    paths: Sequence[str] = (),
    bench_models: bool = False,
    extra_diagnostics: Optional[Sequence[Diagnostic]] = None,
) -> dict:
    """The aggregated JSON document behind ``replint --format=json``."""
    diagnostics: List[Diagnostic] = []
    files: List[dict] = []
    for path in paths:
        file_diags = lint_path(path)
        diagnostics.extend(file_diags)
        files.append(
            {
                "path": os.path.relpath(path),
                "diagnostics": [d.as_dict() for d in file_diags],
            }
        )
    models: List[dict] = []
    if bench_models:
        for name, analysis in lint_bench_models().items():
            diagnostics.extend(analysis.diagnostics)
            models.append(
                {
                    "model": name,
                    "verdict": analysis.verdict,
                    "conclusive": analysis.conclusive,
                    "batchable": analysis.batchable,
                    "bounded": analysis.bounded,
                    "families": sorted(analysis.families),
                    "shape": analysis.shape,
                    "forced": analysis.forced,
                    "reason": analysis.reason,
                    "diagnostics": [d.as_dict() for d in analysis.diagnostics],
                }
            )
    if extra_diagnostics:
        diagnostics.extend(extra_diagnostics)
    n_errors = sum(1 for d in diagnostics if d.severity == "error")
    n_warnings = sum(1 for d in diagnostics if d.severity == "warning")
    return {
        "tool": "replint",
        "files": files,
        "bench_models": models,
        "summary": {
            "errors": n_errors,
            "warnings": n_warnings,
            "total": len(diagnostics),
        },
        "diagnostics": [d.as_dict() for d in diagnostics],
    }
