"""lrsdag benchmark: one workload per invocation, result as the last line.

    python3 perfbench/run.py --workload cnn-adapt --seed 3 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ./src.
The workload is set up SETUP_REPEATS times into fresh directories
(`setup_s` is the median), then repeated until `--seconds` have passed,
at least twice. Timings are medians over the repetitions, leaving out the
first when there are three or more.

With `--trace 1` untraced and traced repetitions alternate over the same
window; the per-layer metrics are medians over the traced ones, spans of
the last traced repetition go to .bench_work/traces/, and every traced
repetition must reproduce the untraced digests.

The last stdout line is {"correct", "attempted", "failed", "metrics"}:
`attempted` counts top-level calls (CLI commands or cells) and `failed`
those that raised, exited nonzero or failed an output check, so
failed / attempted is the failed-operations ratio. The line before it
holds the details: machine, sizes, digests, check failures, notes.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

SETUP_REPEATS = 3
WORK_DIR = ".bench_work"

NOTES = [
    "closed loop, one caller: each top-level call starts when the previous returns",
    "no layer has a queue, so no wait time is recorded",
    "nn.*_gflop are computed from layer shapes, not measured",
    "*_s layer metrics are inclusive span times; <layer>.self_s excludes child spans",
    "peak_rss_mb is the process peak, set-up included",
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lrsdag", "__init__.py")):
        print("perfbench: run from a checkout root holding src/lrsdag", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    base = os.path.join(root, WORK_DIR, f"{workload.name}-seed{args.seed}-{os.getpid()}")
    try:
        return measure(args, workload, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def measure(args, workload, base):
    import machine
    import tracing
    import workloads

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    setup_times, state = [], None
    for i in range(SETUP_REPEATS):
        started = time.perf_counter()
        state = workload.setup(os.path.join(base, f"setup{i}"), args.seed)
        setup_times.append(time.perf_counter() - started)

    untraced, traced = [], []
    last_trace = None
    window = time.perf_counter()
    # at least two untraced repetitions, so that their digests are compared
    while (len(untraced) < 2 or (args.trace and not traced)
           or time.perf_counter() - window < args.seconds):
        # after the first repetition, a traced run alternates traced and
        # untraced ones
        use_trace = bool(args.trace) and len(traced) < len(untraced)
        trace = tracing.Trace() if use_trace else None
        probes = tracing.Probes()
        rep = workloads.Rep(probes, trace)
        rep_dir = os.path.join(base, f"rep{len(untraced) + len(traced)}")
        with tracing.installed(probes, trace):
            workload.run(state, rep_dir, rep)
        shutil.rmtree(rep_dir, ignore_errors=True)
        if use_trace:
            rep.layer = tracing.layer_metrics(trace, probes)
            traced.append(rep)
            last_trace = trace
        else:
            untraced.append(rep)

    reference = untraced[0]
    for rep in untraced[1:] + traced:
        for label, digest in rep.digests.items():
            if digest != reference.digests.get(label):
                rep.fail(label, f"digest {digest} differs from the first repetition's "
                                f"{reference.digests.get(label)}")
    reps = untraced + traced
    attempted = sum(len(r.labels) for r in reps)
    failed = sum(len(set(r.failures)) for r in reps)

    # the first repetition pays for allocator growth, BLAS thread start-up
    # and cold caches; given three or more, it is checked but not timed
    timed = untraced[1:] if len(untraced) >= 3 else untraced
    wall = statistics.median(r.wall_s for r in timed)
    if args.trace:
        values = {name: statistics.median(r.layer[name] for r in traced)
                  for name in traced[0].layer}
        values["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                     - statistics.median(r.wall_s for r in untraced[1:]))
        declared = spec["per_layer"]
    else:
        values = {
            "examples_per_s": statistics.median(r.examples / r.wall_s for r in timed),
            "wall_s": wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "target_acc_pct": reference.accuracy.get("target", 0.0),
            "source_acc_pct": reference.accuracy.get("source", 0.0),
        }
        declared = spec["end_to_end"]
    # every metric BENCHMARK.json declares; one the run lacks is an error
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    details = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine.describe(),
        "sizes": workload.sizes(),
        "setup_s_each": setup_times,
        "untraced_wall_s_each": [r.wall_s for r in untraced],
        "traced_wall_s_each": [r.wall_s for r in traced],
        "failed_ops_ratio": failed / attempted,
        "digests": reference.digests,
        "failures": [{"rep": i, "call": label, "messages": msgs}
                     for i, r in enumerate(reps) for label, msgs in r.failures.items()],
        "notes": NOTES,
    }
    if last_trace is not None:
        trace_dir = os.path.join(os.path.dirname(base), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{workload.name}-seed{args.seed}.json")
        last_trace.dump(path)
        details["trace_file"] = os.path.relpath(path)
        details["cells"] = tracing.cell_breakdown(last_trace)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
