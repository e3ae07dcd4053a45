"""The robot of Fig. 5: model, environment, and closed-loop controller.

The paper's larger example: a robot with an accelerometer and an
occasionally-available GPS estimates its own position by dead reckoning
corrected by GPS fixes, while a controller — consuming the *inferred*
position distribution — drives it to a target; an automaton switches to
a task mode once the posterior is confident enough. "Inference in the
loop": the command from the previous step feeds the motion model, and
the posterior feeds the controller.

The latent state is ``z = [position, velocity, acceleration]`` with
linear dynamics driven by the command, so under SDS each particle runs
an exact matrix Kalman filter (via the multivariate linear-Gaussian
conjugacy) and a single particle suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from repro.dists.stats import probability
from repro.lang import gaussian, mv_gaussian
from repro.runtime.node import ProbCtx, ProbNode
from repro.symbolic import app as sym_app

__all__ = ["RobotConfig", "RobotModel", "RobotEnv", "robot_matrices"]


@dataclass(frozen=True)
class RobotConfig:
    """Physical and sensor parameters of the robot."""

    dt: float = 0.1
    accel_var: float = 0.05      # the paper's a_var: actuation noise
    accel_noise: float = 0.01    # the paper's a_noise: accelerometer noise
    gps_noise: float = 0.25      # the paper's p_noise
    gps_period: int = 5          # steps between GPS fixes
    prior_var: float = 25.0
    target: float = 10.0
    epsilon: float = 1.0
    confidence: float = 0.9


def robot_matrices(config: RobotConfig) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dynamics ``z' = F z + B cmd + w`` with ``w ~ N(0, Q)``.

    The acceleration component is re-driven by the command each step
    (``a = cmd + noise``, the paper's ``sample(gaussian(pre cmd, a_var))``)
    while position and velocity integrate it (the two ``integr`` blocks).
    """
    dt = config.dt
    f = np.array(
        [
            [1.0, dt, 0.5 * dt * dt],
            [0.0, 1.0, dt],
            [0.0, 0.0, 0.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    q = np.diag([1e-6, 1e-6, config.accel_var])
    return f, b, q


class RobotModel(ProbNode):
    """``gps_acc_tracker`` of Fig. 5 as a probabilistic node.

    Input is ``(a_obs, gps, cmd)`` where ``gps`` is ``None`` when the
    signal is absent (the ``present gps(p_obs) -> ...`` construct) and
    ``cmd`` is the command issued at the *previous* step. Output is the
    latent state vector (symbolically, under delayed sampling).
    """

    def __init__(self, config: RobotConfig = RobotConfig()):
        self.config = config
        self.f, self.b, self.q = robot_matrices(config)

    def init(self) -> Any:
        return None

    def step(self, state: Any, inp: Tuple[float, Optional[float], float], ctx: ProbCtx):
        a_obs, gps, cmd = inp
        config = self.config
        if state is None:
            prior_mean = np.zeros(3)
            prior_cov = np.diag([config.prior_var, 1.0, config.accel_var])
            z = ctx.sample(mv_gaussian(prior_mean, prior_cov))
        else:
            drift = self.b * float(cmd)
            mean = sym_app("add", sym_app("matvec", self.f, state), drift)
            z = ctx.sample(mv_gaussian(mean, self.q))
        # accelerometer reading of the acceleration component
        ctx.observe(gaussian(z[2], config.accel_noise), a_obs)
        # GPS fix of the position component, when present
        if gps is not None:
            ctx.observe(gaussian(z[0], config.gps_noise), gps)
        # output the position estimate (a scalar projection of the state)
        return z[0], z


class RobotEnv:
    """Ground-truth simulator producing sensor readings.

    Owns the true state; :meth:`step` applies a command and returns
    ``(a_obs, gps_or_None)`` plus the true position for scoring.
    """

    def __init__(self, config: RobotConfig = RobotConfig(), seed: int = 0):
        self.config = config
        self.f, self.b, self.q = robot_matrices(config)
        self.rng = np.random.default_rng(seed)
        self.z = np.array([0.0, 0.0, 0.0])
        self.t = 0

    def step(self, cmd: float) -> Tuple[float, Optional[float], float]:
        config = self.config
        noise = self.rng.multivariate_normal(np.zeros(3), self.q, method="svd")
        self.z = self.f @ self.z + self.b * float(cmd) + noise
        a_obs = float(self.rng.normal(self.z[2], np.sqrt(config.accel_noise)))
        gps: Optional[float] = None
        if self.t % config.gps_period == 0:
            gps = float(self.rng.normal(self.z[0], np.sqrt(config.gps_noise)))
        self.t += 1
        return a_obs, gps, float(self.z[0])


def reached_target(p_dist, config: RobotConfig) -> bool:
    """The Fig. 5 guard: P(p in [target-eps, target+eps]) > confidence."""
    return probability(p_dist, config.target, config.epsilon) > config.confidence


# Register the robot tracker with the array-native delayed-sampling
# backend. Unlike the scalar Kalman chains (whose conjugate structure is
# declared by hand in repro.bench.models), the robot's chain structure is
# *verified*: the static analysis proves the model stays inside the
# batched fragment (mv-Gaussian transition, projection observations,
# lockstep control flow) and bounded without executing it. A model edit
# that breaks the chain (a non-Gaussian sensor, a branch on a sampled
# value) leaves the robot on the scalar engines instead of crashing the
# vectorized path.
from repro.analysis.routing import analysis_for  # noqa: E402
from repro.vectorized.models import register_ds_graph_model  # noqa: E402

_analysis = analysis_for(RobotModel())
if _analysis.conclusive and _analysis.batchable and _analysis.bounded:
    register_ds_graph_model(RobotModel)
