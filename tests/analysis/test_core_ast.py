"""The kernel-AST frontend: surface programs and fixtures."""

from pathlib import Path

from repro.analysis import (
    DANGLING_RV,
    NONCONJUGATE_EDGE,
    SYMBOLIC_BRANCH,
    UNBOUNDED_MEMORY,
    UNUSED_OBSERVE,
    analyze_node,
    analyze_program,
    lint_program,
)
from repro.frontend import parse_program

FIXTURES = Path(__file__).parent / "fixtures"

HMM = """
let node hmm y = x where
  rec mu = 0. -> pre x
  and sigma2 = 100. -> 1.
  and x = sample (gaussian (mu, sigma2))
  and () = observe (gaussian (x, 1.), y)
"""


def _analyze_fixture(name):
    source = (FIXTURES / name).read_text()
    return analyze_program(parse_program(source), file=name)


def codes(analysis):
    return {d.code for d in analysis.diagnostics}


class TestSurfacePrograms:
    def test_hmm_is_a_bounded_batchable_chain(self):
        result = analyze_program(parse_program(HMM))
        a = result["hmm"]
        assert a.conclusive and a.batchable and a.bounded
        assert a.families == frozenset({"gaussian"})
        assert a.shape == "chain"

    def test_only_probabilistic_nodes_analyzed(self):
        """Deterministic drivers — including ones *running* inference —
        have no delayed-sampling structure to analyze."""
        source = HMM + """
let node main y = m where
  rec d = infer 10 hmm y
  and m = mean_float (d)
"""
        result = analyze_program(parse_program(source))
        assert set(result) == {"hmm"}

    def test_analyze_node_by_name(self):
        a = analyze_node(parse_program(HMM), "hmm")
        assert a.conclusive and a.batchable
        assert a.name == "hmm"

    def test_lint_program_flattens_diagnostics(self):
        source = (FIXTURES / "unbounded_walk.zls").read_text()
        diags = lint_program(parse_program(source))
        assert any(d.code == UNBOUNDED_MEMORY for d in diags)


class TestCommittedFixtures:
    """The acceptance fixtures: one unbounded-memory, one
    non-conjugate-edge, one lockstep-violating surface program."""

    def test_unbounded_walk_flags_rep001(self):
        result = _analyze_fixture("unbounded_walk.zls")
        a = result["walk"]
        assert a.conclusive and not a.bounded
        assert UNBOUNDED_MEMORY in codes(a)
        diag = next(d for d in a.diagnostics if d.code == UNBOUNDED_MEMORY)
        assert diag.severity == "error"
        assert "'x'" in diag.message

    def test_nonconjugate_observation_flags_rep003(self):
        result = _analyze_fixture("nonconjugate.zls")
        a = result["squared"]
        assert NONCONJUGATE_EDGE in codes(a)
        # a non-conjugate edge costs a realization but stays batchable
        assert a.conclusive and a.batchable
        assert a.forced >= 1

    def test_symbolic_branch_flags_rep009(self):
        result = _analyze_fixture("symbolic_branch.zls")
        a = result["flip"]
        assert SYMBOLIC_BRANCH in codes(a)
        assert a.conclusive and not a.batchable
        errors = [d for d in a.diagnostics if d.severity == "error"]
        assert all(d.code == SYMBOLIC_BRANCH for d in errors) and errors

    def test_symbolic_branch_reported_once(self):
        """The `gt` comparison and the `if` it feeds are one site: one
        REP009, as the same model written in Python reports."""
        a = _analyze_fixture("symbolic_branch.zls")["flip"]
        assert [d.code for d in a.diagnostics].count(SYMBOLIC_BRANCH) == 1


class TestSmallDiagnostics:
    def test_unused_observe(self):
        source = """
let node blind y = x where
  rec x = sample (gaussian (0. -> pre x, 1.))
  and () = observe (gaussian (0., 1.), y)
  and () = observe (gaussian (x, 1.), y)
"""
        a = analyze_program(parse_program(source))["blind"]
        assert UNUSED_OBSERVE in codes(a)

    def test_dangling_rv(self):
        source = """
let node dead y = x where
  rec unused = sample (gaussian (0., 1.))
  and x = sample (gaussian (0., 1.))
  and () = observe (gaussian (x, 1.), y)
"""
        a = analyze_program(parse_program(source))["dead"]
        assert DANGLING_RV in codes(a)
