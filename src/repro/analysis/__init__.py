"""Ahead-of-time model analysis.

A static dataflow analysis over compiled programs that answers, without
executing the model, the questions the runtime otherwise discovers the
hard way:

* **Bounded memory** — does the delayed-sampling graph stay
  pointer-minimal across instants, or does some sampled variable
  anchor a chain that grows forever (the paper's ``hmm_init`` / random
  ``walk`` pathologies)?
* **Batchability** — do all conditioning edges fall in the conjugate
  fragment the batched runtime implements (affine-Gaussian,
  projections, mv-affine, Beta–Bernoulli, Gamma–Poisson,
  Dirichlet–Categorical), and does control flow stay in lockstep
  across particles?
* **Lint** — machine-readable diagnostics (``REP001``–``REP010``) via
  the :mod:`repro.analysis.lint` API and the ``replint`` CLI.

Two front ends feed one backend: :func:`analyze_model` interprets
Python step functions abstractly, :func:`analyze_program` /
:func:`analyze_node` walk compiled kernel-AST programs (and
:func:`analyze_model` sends a compiled surface node there), and both
hand each abstract instant to the shared verdict backend of
:mod:`repro.analysis.verdict`, which returns a :class:`ModelAnalysis`.
:func:`analysis_for` adds caching and :func:`consult_for_backend` turns
the verdict into a routing decision for ``infer(..., backend="auto")``.
"""

from repro.analysis.absint import analyze_model
from repro.analysis.core_ast import (
    analyze_node,
    analyze_program,
    lint_program,
)
from repro.analysis.lint import (
    lint_bench_models,
    lint_model,
    lint_path,
    lint_paths,
    lint_report,
    lint_source,
)
from repro.analysis.report import (
    DANGLING_RV,
    DIAGNOSTIC_CODES,
    LOCKSTEP_BRANCH,
    NONBATCHABLE_FAMILY,
    NONCONJUGATE_EDGE,
    SYMBOLIC_BRANCH,
    UNBOUNDED_MEMORY,
    UNGUARDED_LAST,
    UNLIFTABLE_OUTPUT,
    UNREACHABLE_INIT,
    UNUSED_OBSERVE,
    Diagnostic,
    EdgeInfo,
    ModelAnalysis,
    RVNode,
    Site,
    StepGraph,
)
from repro.analysis.routing import (
    analysis_for,
    clear_analysis_cache,
    consult_for_backend,
    record_verdict,
)

__all__ = [
    "analyze_model",
    "analyze_node",
    "analyze_program",
    "lint_program",
    "lint_model",
    "lint_source",
    "lint_path",
    "lint_paths",
    "lint_bench_models",
    "lint_report",
    "analysis_for",
    "consult_for_backend",
    "record_verdict",
    "clear_analysis_cache",
    "ModelAnalysis",
    "Diagnostic",
    "Site",
    "RVNode",
    "EdgeInfo",
    "StepGraph",
    "DIAGNOSTIC_CODES",
    "UNBOUNDED_MEMORY",
    "LOCKSTEP_BRANCH",
    "NONCONJUGATE_EDGE",
    "NONBATCHABLE_FAMILY",
    "UNUSED_OBSERVE",
    "UNREACHABLE_INIT",
    "UNGUARDED_LAST",
    "DANGLING_RV",
    "SYMBOLIC_BRANCH",
    "UNLIFTABLE_OUTPUT",
]
