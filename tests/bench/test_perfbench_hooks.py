"""The benchmark's traced run can still find every hook it installs.

``perfbench/tracing.py`` wraps entry points that it looks up by name:
each mixture array's own ``__init__``, ``init``/``step`` of the
engines, the ``BatchedDSGraph`` ops and every callable in
``kernels.__all__``. A refactor that moves one of them (into a base
class, say) breaks ``perfbench/run.py --trace 1``. Installing the tracer
in a fresh interpreter catches that in the ordinary test run.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_tracer_installs():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    result = subprocess.run(
        [sys.executable, "-c", "from tracing import Tracer; Tracer().install()"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
