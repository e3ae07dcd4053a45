"""The paper's Appendix B programs, parsed from concrete syntax and run.

The sources are the appendix code with two mechanical adaptations: the
explicit ``prob`` argument is dropped (our engines thread the
probabilistic context implicitly) and the engine/particle configuration
is chosen at the `infer` site.
"""

import pytest

from repro.bench.paper_sources import HMM_SOURCE
from repro.core import (
    Interpreter,
    check_program,
    compile_program,
    desugar_program,
    load,
    prepare_program,
)
from repro.frontend import parse_program
from repro.inference import infer

KALMAN_SRC = """
(* Appendix B.1 *)
let node delay_kalman yobs = xt where
  rec xt = sample (gaussian (100. * (0. -> 0.) + (0. -> pre xt), 1. -> 1.))
  and () = observe (gaussian (xt, 1.), yobs)
"""

# the appendix's (0., 100.) -> (pre xt, 1.) pairs an initial
# (mean, var) with the running one; written out explicitly here:
KALMAN_FULL_SRC = """
let node delay_kalman yobs = xt where
  rec mu = 0. -> pre xt
  and sigma2 = 100. -> 1.
  and xt = sample (gaussian (mu, sigma2))
  and () = observe (gaussian (xt, 1.), yobs)
"""

COIN_SRC = """
(* Appendix B.2 *)
let node coin yobs = xt where
  rec init xt = sample (beta (1., 1.))
  and () = observe (bernoulli (xt), yobs)
"""

MAIN_SRC = """
(* the main driver of Appendix B *)
let node main (tr, observed) = (est_mean, mse) where
  rec t = 1. -> pre t + 1.
  and x_d = infer 200 delay_kalman observed
  and est_mean = mean_float (x_d)
  and error = (est_mean - tr) * (est_mean - tr)
  and mse = total_error / t
  and total_error = error -> pre total_error + error
"""


class TestKalmanSource:
    def test_parses_and_kind_checks(self):
        prog = prepare_program(parse_program(KALMAN_FULL_SRC))
        assert check_program(prog)["delay_kalman"] == "P"

    def test_runs_exactly_under_sds(self):
        prog = parse_program(KALMAN_FULL_SRC)
        model = Interpreter(prog).prob_node("delay_kalman")
        engine = infer(model, n_particles=1, method="sds", seed=0)
        state = engine.init()
        mu, var = 0.0, 100.0
        for t, obs in enumerate([0.5, 1.5, 0.9, 2.0]):
            if t > 0:
                var += 1.0
            gain = var / (var + 1.0)
            mu = mu + gain * (obs - mu)
            var = (1.0 - gain) * var
            dist, state = engine.step(state, obs)
            assert dist.mean() == pytest.approx(mu, rel=1e-9)


class TestCoinSource:
    def test_runs_exactly_under_sds(self):
        prog = parse_program(COIN_SRC)
        model = load(prog).prob_node("coin")
        engine = infer(model, n_particles=1, method="sds", seed=0)
        state = engine.init()
        alpha, beta = 1.0, 1.0
        for flip in [True, False, True, True, False]:
            dist, state = engine.step(state, flip)
            alpha, beta = (alpha + 1, beta) if flip else (alpha, beta + 1)
            assert dist.mean() == pytest.approx(alpha / (alpha + beta), rel=1e-9)


class TestMainDriver:
    def test_full_driver_parses_and_runs(self):
        prog = parse_program(KALMAN_FULL_SRC + MAIN_SRC)
        module = load(prog)
        main = module.det_node("main")
        state = main.init()
        observations = [0.5, 1.5, 0.9]
        truths = [0.4, 1.4, 1.0]
        for truth, obs in zip(truths, observations):
            (est, mse), state = main.step(state, (truth, obs))
        assert mse >= 0.0
        assert abs(est - truths[-1]) < 2.0

    def test_mse_recursion_matches_tracker(self):
        """The driver's running-MSE equations equal MseTracker."""
        from repro.inference.metrics import MseTracker

        prog = parse_program(KALMAN_FULL_SRC + MAIN_SRC)
        main = load(prog).det_node("main")
        state = main.init()
        tracker = MseTracker()
        tracker_state = tracker.init()
        for truth, obs in [(0.0, 0.3), (0.5, 0.8), (1.0, 1.1)]:
            (est, mse), state = main.step(state, (truth, obs))
            expected, tracker_state = tracker.step(tracker_state, (est, truth))
            assert mse == pytest.approx(expected, rel=1e-12)


class TestDeterministicNames:
    def test_one_source_parses_and_compiles_to_one_program(self):
        """Front-end temporaries are numbered per call, not per process:
        the Section-2 HMM parsed, desugared and compiled twice gives
        equal programs."""
        first, second = parse_program(HMM_SOURCE), parse_program(HMM_SOURCE)
        assert first == second
        assert desugar_program(first) == desugar_program(second)
        assert prepare_program(first) == prepare_program(second)
        assert compile_program(first) == compile_program(second)
