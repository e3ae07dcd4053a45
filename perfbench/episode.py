"""One benchmark episode, in a fresh interpreter.

Usage (normally spawned by ``run.py``)::

    PYTHONPATH=src python3 perfbench/episode.py --workload NAME --seed N \
        --episode K [--trace]

Set-up time starts before ``import repro``: it covers the import, model
construction, ``infer`` with a cold analysis cache, ``init`` and the
warm-up instants. Generating the inputs and installing the tracer are
the benchmark's own work and are not counted. Episode 0 also makes the
checks that need a replay of the run. A traced episode writes its spans
to ``perfbench/out/spans-<workload>.jsonl``. The episode prints one JSON
object as its last line of standard output.

Every timing is reported twice: as wall time, and scaled to the
reference host speed by the calibration work timed around it (see
``calibration.py``). Set-up parts are bracketed by ``python``
calibration, the timed instants by the workload's own kind.
"""

import time

from calibration import Calibration, scale, scale_all

# The first calibration runs before the set-up clock starts.
_SETUP_CALIBRATION = Calibration("python")
_SETUP_CAL = [_SETUP_CALIBRATION.measure()]
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--episode", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import repro

    import_s = time.perf_counter() - _STARTED
    setup_cal = _SETUP_CAL + [_SETUP_CALIBRATION.measure()]
    src = os.path.realpath(SRC)
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        print(f"repro imported from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2

    from tracing import LAYER_UNITS, SETUP, NullTracer, Tracer, registry_totals
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else NullTracer()
    workload = WORKLOADS[args.workload](args.seed, args.episode, tracer)
    if args.trace:
        tracer.install()

    started = time.perf_counter()
    workload.build()
    build_s = time.perf_counter() - started
    setup_cal.append(_SETUP_CALIBRATION.measure())
    started = time.perf_counter()
    for i in range(workload.warmup):
        workload.react(i)
    warmup_s = time.perf_counter() - started
    setup_cal.append(_SETUP_CALIBRATION.measure())
    setup_walls = (import_s, build_s, warmup_s)

    calibration = Calibration(workload.calibration)
    timed = range(workload.warmup, workload.steps)
    before = registry_totals()
    wall_ms, cal = [], [calibration.measure()]
    for i in timed:
        wall_ms.append(workload.react(i) * 1e3)
        cal.append(calibration.measure())
    after = registry_totals()
    tracer.on = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    retained = workload.retained_outputs()
    workload.finish(check_state=args.episode == 0)

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": args.trace,
        "setup": {"import_s": import_s, "build_s": build_s, "warmup_s": warmup_s,
                  "wall_s": sum(setup_walls),
                  "total_s": sum(scale_all(setup_walls, setup_cal)),
                  "calibration": setup_cal},
        "samples_ms": scale_all(wall_ms, cal),
        "wall_ms": wall_ms,
        "calibration_kind": calibration.kind,
        "calibration": cal,
        "width": workload.width,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "problems": workload.problems,
        "sse": workload.sse,
        "state_words": workload.state_words,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        delta = {k: after[k] - before.get(k, 0.0) for k in after}
        extra = {"exec.retained_outputs": retained, "exec.evictions": workload.evictions,
                 "exec.retries": workload.retries}
        layers, coverage = tracer.layer_metrics(timed, delta, after, extra)
        # Layer times at the reference host speed, like the end-to-end ones:
        # set-up spans all fall in the build, the rest in the timed window.
        setup_speed = scale(1.0, setup_cal[1], setup_cal[2])
        timed_speed = statistics.median(scale_all([1.0] * len(wall_ms), cal))
        setup_names = {metric for metric, _, _ in SETUP}
        for name in layers:
            if LAYER_UNITS[name] == "ms":
                layers[name] *= setup_speed if name in setup_names else timed_speed
        result["layers"] = layers
        result["coverage"] = coverage
        out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out, exist_ok=True)
        tracer.write(os.path.join(out, f"spans-{workload.name}.jsonl"), workload.name)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
