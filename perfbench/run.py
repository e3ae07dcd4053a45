"""The repository benchmark: three closed-loop workloads, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload track-outlier-100k --seed 1 \
        --seconds 20 --trace 0

The command runs fresh-interpreter episodes of the workload (see
``episode.py``) until ``--seconds`` are spent, at least eight of them
(four with ``--trace 1``), and reports:

* with ``--trace 0``, the end-to-end metrics of untraced episodes:
  set-up time (median over episodes), reaction-time p50/p90 and
  throughput over every timed instant, accuracy against closed-form
  posteriors, state words, peak RSS and the share of instants that
  succeeded. Times are at the reference host speed (``calibration.py``);
  the wall-time p50 and set-up are printed beside them;
* with ``--trace 1``, the per-layer metrics of traced episodes
  (medians), alternating with untraced ones that give the tracing
  overhead.

Each metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Any failed check makes the
command exit 1; a checkout without ``src/repro`` exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("track-outlier-100k", "serve-mix-36x1k", "surface-hmm-100")
#: mse_ratio pools exactly the first this many episodes of a run, so it
#: depends only on the seed and the program, not on the host's speed
ACCURACY_EPISODES = 8
#: episodes per run at least: untraced, and traced runs need both kinds
MIN_EPISODES = {False: ACCURACY_EPISODES, True: 4}
#: a run starts no episode after this long, whatever --seconds says...
HARD_LIMIT_S = 100.0
#: ...and gives up, without a result, when one overruns this deadline
DEADLINE_S = 160.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "steps_per_s": "1/s",
    "mse_ratio": "ratio",
    "state_words": "words",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class EpisodeError(RuntimeError):
    pass


def run_episode(workload, seed, episode, traced, env, timeout):
    cmd = [sys.executable, os.path.join(HERE, "episode.py"), "--workload", workload,
           "--seed", str(seed), "--episode", str(episode)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise EpisodeError(f"episode still running after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise EpisodeError(f"episode exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def mse_ratio(episodes):
    """Geometric mean over streams of the squared error over the closed form's.

    A stream is one session of one episode, taken from the run's first
    ``ACCURACY_EPISODES`` episodes; serve leaves out the sessions it
    checks against a closed form. The geometric mean, not the mean or a
    pooled sum: a 1k-particle pf on the Outlier model occasionally loses
    the track for a whole episode (error ratio in the hundreds), which
    would swamp a mean, while a degradation of any one kind of session
    still moves the figure.
    """
    return statistics.geometric_mean(
        run / ref for e in episodes[:ACCURACY_EPISODES] for run, ref in e["sse"])


def end_to_end(episodes, attempted, failed):
    """Metric -> (value, sample count) over untraced episodes."""
    samples = [s for e in episodes for s in e["samples_ms"]]
    width = episodes[0]["width"]
    words = [e["state_words"]["end"] for e in episodes if "end" in e["state_words"]]
    streams = sum(len(e["sse"]) for e in episodes[:ACCURACY_EPISODES])
    return {
        "setup_s": (statistics.median(e["setup"]["total_s"] for e in episodes), len(episodes)),
        "step_ms_p50": (statistics.median(samples), len(samples)),
        "step_ms_p90": (statistics.quantiles(samples, n=10, method="inclusive")[8],
                        len(samples)),
        "steps_per_s": (width * len(samples) / (sum(samples) / 1e3), width * len(samples)),
        "mse_ratio": (mse_ratio(episodes), streams),
        "state_words": (float(words[0]), 1),
        "peak_rss_mb": (statistics.median(e["peak_rss_mb"] for e in episodes), len(episodes)),
        "ok_ratio": (1.0 - failed / attempted, attempted),
    }


def per_layer(episodes):
    """Metric -> (value, sample count): medians over traced episodes."""
    untraced = [s for e in episodes if not e["traced"] for s in e["samples_ms"]]
    traced_eps = [e for e in episodes if e["traced"]]
    traced = [s for e in traced_eps for s in e["samples_ms"]]
    n = len(traced_eps)
    out = {name: (statistics.median(e["layers"][name] for e in traced_eps), n)
           for name in traced_eps[0]["layers"]}
    base = statistics.median(untraced)
    out["trace.overhead_pct"] = (100.0 * (statistics.median(traced) - base) / base,
                                 len(traced))
    out["trace.coverage"] = (statistics.median(e["coverage"] for e in traced_eps), n)
    return out


def layer_units():
    sys.path.insert(0, HERE)
    from tracing import LAYER_UNITS

    return dict(LAYER_UNITS, **{"trace.overhead_pct": "%", "trace.coverage": "ratio"})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    # Exit through Python on SIGTERM, so subprocess.run kills and reaps
    # a running episode instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro package under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # Byte-compile once so that no episode's set-up pays for it.
    compiled = subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                              cwd=ROOT, env=env, capture_output=True, text=True)
    if compiled.returncode != 0:
        print(compiled.stdout + compiled.stderr, file=sys.stderr)
        return 2

    episodes, problems = [], []
    started = perf_counter()
    while True:
        traced = trace and len(episodes) % 2 == 1
        timeout = max(1.0, DEADLINE_S - (perf_counter() - started))
        try:
            episode = run_episode(args.workload, args.seed, len(episodes), traced, env,
                                  timeout)
        except EpisodeError as exc:
            print(f"{args.workload}: {exc}", file=sys.stderr)
            return 1
        episodes.append(episode)
        problems += episode["problems"]
        elapsed = perf_counter() - started
        per_episode = elapsed / len(episodes)
        if len(episodes) >= MIN_EPISODES[trace] and (
            elapsed + per_episode > args.seconds or elapsed > HARD_LIMIT_S
        ):
            break

    attempted = sum(e["attempted"] for e in episodes)
    failed = sum(e["failed"] for e in episodes)
    untraced = [e for e in episodes if not e["traced"]]
    if trace:
        values, units = per_layer(episodes), layer_units()
    else:
        values, units = end_to_end(untraced, attempted, failed), END_TO_END_UNITS

    print(f"{args.workload}  seed={args.seed}  episodes={len(episodes)} "
          f"({len(untraced)} untraced)  wall={perf_counter() - started:.1f} s")
    setups = [e["setup"] for e in untraced]
    print("  setup parts (median wall s): " + "  ".join(
        f"{part}={statistics.median(s[part] for s in setups):.4f}"
        for part in ("import_s", "build_s", "warmup_s", "wall_s")))
    walls = [s for e in untraced for s in e["wall_ms"]]
    speed = statistics.median(s / w for e in untraced
                              for s, w in zip(e["samples_ms"], e["wall_ms"]))
    print(f"  wall time: step p50={statistics.median(walls):.4f} ms; the host ran at "
          f"{speed:.3f}x the reference speed ({untraced[0]['calibration_kind']} calibration); "
          "times below are at the reference speed")
    for name, (value, count) in values.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]:<6} (n={count})")
    print(f"  {'fail_ratio':<34} {failed / attempted:>14.6g} {'ratio':<6} (n={attempted})")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
