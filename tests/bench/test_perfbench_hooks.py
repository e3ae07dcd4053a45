"""The benchmark's traced run can still find every hook it installs.

``perfbench/tracing.py`` wraps entry points that it looks up by name:
each mixture array's own ``__init__``, ``init``/``step`` of the
engines, the ``BatchedDSGraph`` ops and every callable in
``kernels.__all__``. A refactor that moves one of them (into a base
class, say) breaks ``perfbench/run.py --trace 1``. Installing the tracer
in a fresh interpreter catches that in the ordinary test run. Stepping
engines under it checks what the per-layer metrics count per step.
"""

import functools
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _run(code: str) -> str:
    """Run ``code`` in a fresh interpreter with src/ and perfbench/ on the path."""
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_tracer_installs():
    _run("from tracing import Tracer; Tracer().install()")


#: Steps three engines (scalar pf, graph sds, closed-form Kalman sds)
#: under the installed tracer and prints, per engine, how many
#: ``inference.normalize`` spans, ESS probe values and
#: ``exec.population_build`` spans its unsharded steps recorded.
STEP_SCRIPT = """
import json
from tracing import Tracer

tracer = Tracer()
tracer.install()
import repro
from repro.bench.models import KalmanModel, OutlierModel

counts = {}
for label, model, method, backend in (
    ("pf@scalar", KalmanModel, "pf", "scalar"),
    ("sds@auto-graph", OutlierModel, "sds", "auto"),
    ("sds@auto-kalman", KalmanModel, "sds", "auto"),
):
    engine = repro.infer(model(), 20, method=method, backend=backend, seed=0)
    state = engine.init()
    spans, values = len(tracer.spans), len(tracer.values["ess"])
    for obs in (0.5, -1.0, 2.0):
        _, state = engine.step(state, obs)
    names = [s[0] for s in tracer.spans[spans:]]
    counts[label] = [
        names.count("inference.normalize"),
        len(tracer.values["ess"]) - values,
        names.count("exec.population_build"),
    ]
print(json.dumps(counts))
"""


@functools.lru_cache(maxsize=None)
def _step_counts() -> dict:
    return json.loads(_run(STEP_SCRIPT).strip().splitlines()[-1])


def test_one_normalize_span_and_one_ess_value_per_step():
    """Each engine step normalizes once and takes its ESS once, through
    the ``repro.inference.engine.ess`` binding that the ESS probe wraps:
    ``inference.ess_frac`` read 0 when only a resample threshold took it."""
    counts = {label: c[:2] for label, c in _step_counts().items()}
    assert counts == {
        "pf@scalar": [3, 3],
        "sds@auto-graph": [3, 3],
        "sds@auto-kalman": [3, 3],
    }


def test_unsharded_steps_build_no_population():
    """An unsharded step runs its one shard directly: it does not wrap
    the batch in a one-shard ``ShardedPopulation`` first."""
    builds = {label: c[2] for label, c in _step_counts().items()}
    assert builds == {"pf@scalar": 0, "sds@auto-graph": 0, "sds@auto-kalman": 0}
