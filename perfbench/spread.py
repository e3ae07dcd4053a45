"""Steadiness check: one untraced benchmark run per seed, then the spreads.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload serve-mix-36x1k --seeds 101-110 \
        [--record LABEL]

Runs ``run.py --trace 0`` once per seed with ``BENCHMARK.json``'s
``run_seconds``, one run after another. For every end-to-end metric it
prints the median over the seeds and the spread: the distance between
the first and the third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median, next to the metric's bound. With
``--record LABEL`` the set is stored in ``record.json`` under the
workload's ``ten_seed_sets``, replacing a set with the same label.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spreads(rows):
    """Metric -> median, quartiles and spread over the rows (one per seed)."""
    out = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "iqr_over_median": (q3 - q1) / median if median else 0.0}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark spread over seeds")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 101-110")
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    rows = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(proc.stdout[-3000:] + proc.stderr[-3000:], file=sys.stderr)
            return 1
        rows.append({name: m["value"] for name, m in result["metrics"].items()})
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.5g}" for k, v in rows[-1].items()),
              flush=True)

    stats = spreads(rows)
    for name, s in stats.items():
        print(f"  {name:<14} median={s['median']:<12.6g} spread={s['iqr_over_median']:.4f}"
              f"  bound={bounds[name]}")
    if args.record:
        path = os.path.join(HERE, "record.json")
        with open(path) as fh:
            record = json.load(fh)
        sets = record["workloads"][args.workload].setdefault("ten_seed_sets", [])
        sets[:] = [s for s in sets if s["set"] != args.record]
        sets.append({"set": args.record, "seeds": args.seeds,
                     "run_seconds": bench["run_seconds"], "metrics": stats})
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
