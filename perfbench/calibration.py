"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a few cores of a shared host. How fast those
cores run changes within seconds, by up to about 1.7x, as other tenants
load the same physical cores, and a whole run of tens of seconds can sit
in a slow or a fast stretch. An instant timed in a slow stretch reads
slower although the program did the same work.

To take the host's speed out, an episode times a fixed piece of
calibration work right before and right after every timed instant, and
around each part of its set-up. A measurement is the work's time over
its time on the reference host, so 1.0 is the reference speed and 1.5 a
host running 1.5x slower. :func:`scale` turns an interval's wall time
into time at the reference speed: the wall time over the mean of the
two measurements around it.

The calibration work uses nothing from ``repro``, so no change to the
program under test changes it. There are two kinds of work, and a
workload's calibration is the kind its instants do, or both:

* ``python`` -- interpretive work: a small term evaluator with calls,
  tuple indexing, dict lookups and float arithmetic;
* ``numpy`` -- array work on 20,000 floats: exp, cumsum, searchsorted
  and a gather, the operations of a systematic resampler;
* ``mixed`` -- both, the mean of their two measurements.

The two kinds slow down by different factors when the host is loaded
(the python work by up to 1.7x, the numpy work by up to about 1.4x),
which is why a workload's calibration has to match its work.

Importing this module imports only the standard library, so that an
episode can calibrate before ``import repro``; the numpy work imports
NumPy when it is built.
"""

from time import perf_counter
from typing import List, Sequence

#: the median time (ms) of each kind of work on the reference host
#: (Intel Xeon, 2 vCPUs, CPython 3.11.7, NumPy 2.4.6)
REFERENCE_MS = {"python": 0.25, "numpy": 0.80}
#: the kinds of work each calibration times
KINDS = {"python": ("python",), "numpy": ("numpy",), "mixed": ("python", "numpy")}
#: runs of the work per measurement; a measurement is their median
REPEATS = 3

_TERM = ("+", ("*", ("v", "a"), ("c", 0.5)), ("+", ("v", "b"), ("*", ("c", 2.0), ("v", "a"))))


def _evaluate(term, env):
    op = term[0]
    if op == "c":
        return term[1]
    if op == "v":
        return env[term[1]]
    x = _evaluate(term[1], env)
    y = _evaluate(term[2], env)
    return x + y if op == "+" else x * y


def _python_work():
    env = {"a": 1.5, "b": -0.25}
    total = 0.0
    for i in range(300):
        env["a"] = i * 1e-3
        total += _evaluate(_TERM, env)
    return total


def _numpy_work_factory():
    import numpy as np

    values = np.random.default_rng(0).normal(size=20_000)
    points = np.linspace(0.0, 1.0, values.size, endpoint=False)

    def work():
        cdf = np.cumsum(np.exp(values))
        cdf /= cdf[-1]
        return float(values[np.searchsorted(cdf, points)].sum())

    return work


def _median_ms(work) -> float:
    times = []
    for _ in range(REPEATS):
        started = perf_counter()
        work()
        times.append(perf_counter() - started)
    return sorted(times)[REPEATS // 2] * 1e3


class Calibration:
    """Times one kind of calibration work; see the module docstring."""

    def __init__(self, kind: str):
        self.kind = kind
        self._works = [(_python_work if part == "python" else _numpy_work_factory(),
                        REFERENCE_MS[part]) for part in KINDS[kind]]
        for work, _ in self._works:
            work()  # first run: specialise the bytecode, fault in the arrays

    def measure(self) -> float:
        """How many times slower than the reference host the work runs now."""
        return sum(_median_ms(work) / ref for work, ref in self._works) / len(self._works)


def scale(wall: float, before: float, after: float) -> float:
    """``wall`` at the reference host speed, from the measurements around it."""
    return wall / ((before + after) / 2.0)


def scale_all(walls: Sequence[float], measured: Sequence[float]) -> List[float]:
    """Consecutive intervals: ``measured[i]`` and ``measured[i + 1]`` around ``walls[i]``."""
    return [scale(w, measured[i], measured[i + 1]) for i, w in enumerate(walls)]
