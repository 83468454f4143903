"""Record the benchmark of a checkout into one JSON file, or compare two.

    python3 tools/bench_record.py record --out BENCH.json [--quick] [--checkout DIR]
    python3 tools/bench_record.py compare PARENT.json CHANGE.json

`record` runs `perfbench/run.py` in the checkout (this one by default) for
every workload in its BENCHMARK.json, over a fixed seed list, one process
at a time, at the benchmark's `run_seconds` (`--quick`: 0 s over the first
three seeds), plus one traced run at the first seed for the per-layer
metrics.  It writes each end-to-end metric's median and quartiles, every
seed's digests, and the machine: perfbench's own block (nproc, NumPy,
BLAS, git sha), the OpenBLAS config string, `nn.LANES`, and the length of
the checkout's path, which `peak_rss_mb` moves with.

`compare` prints, per workload and end-to-end metric, the change's median
over the parent's, how much worse that is against the metric's bound in
this checkout's BENCHMARK.json, and whether the medians differ by more
than the parent's quartile spread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SEEDS = (1, 2, 3, 4, 5)
QUICK_SEEDS = SEEDS[:3]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NOTES = [
    "runs are not paired: a gain is claimed from alternating paired runs, "
    "not from two of these files",
    "peak_rss_mb moves with the length of the checkout's path "
    "(checkout_path_length), by more than its bound",
    "tensor_core.im2col_s and col2im_s add up the time of every conv lane, "
    "and self times are off by the overlap; nn.conv_fwd_s and nn.conv_bwd_s "
    "are exact",
    "the tracer books weight-gradient work for frozen layers, which moves "
    "nn.wgrad_useful_ratio, nn.conv_gflop and nn.linear_gflop",
    "on fcn-reproduce a trial's pretrained cells run on two lanes at once, "
    "and their spans share the tracer's one stack: span parents, self times "
    "and the phase-2 epoch figures mix the two lanes' cells",
]

# run inside the checkout, so that it reads that checkout's lrsdag
PROBE = """
import ctypes, json, sys
import numpy as np
sys.path.insert(0, "src")
from lrsdag import nn
lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
config = None
for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
             "openblas_get_config64_", "openblas_get_config"):
    if hasattr(lib, name):
        getattr(lib, name).restype = ctypes.c_char_p
        config = getattr(lib, name)().decode()
        break
print(json.dumps({"openblas_config": config, "lanes": nn.LANES}))
"""


def run_bench(checkout, workload, seed, seconds, trace):
    """The (details, result) lines of one perfbench run."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    details, result = out.strip().splitlines()[-2:]
    return json.loads(details), json.loads(result)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "each": values}


def record(checkout, out, quick):
    checkout = os.path.abspath(checkout)
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds = QUICK_SEEDS if quick else SEEDS
    seconds = 0 if quick else spec["run_seconds"]
    probe = subprocess.run([sys.executable, "-c", PROBE], cwd=checkout, check=True,
                           capture_output=True, text=True).stdout
    doc = {"seconds": seconds, "seeds": list(seeds), "machine": None,
           "checkout_path_length": len(checkout), **json.loads(probe),
           "notes": NOTES, "workloads": {}}
    for w in spec["workloads"]:
        name, runs = w["name"], []
        for seed in seeds:
            print(f"{name} seed {seed}", file=sys.stderr)
            runs.append(run_bench(checkout, name, seed, seconds, 0))
        doc["machine"] = runs[0][0]["machine"]
        _, traced = run_bench(checkout, name, seeds[0], seconds, 1)
        doc["workloads"][name] = {
            "correct": all(r["correct"] for _, r in runs),
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "metrics": {m["name"]: dict(unit=m["unit"], **spread(
                [r["metrics"][m["name"]]["value"] for _, r in runs]))
                for m in spec["end_to_end"]},
            "digests": {str(seed): d["digests"] for seed, (d, _) in zip(seeds, runs)},
            "traced_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def compare(parent_path, change_path):
    """Print each metric's change against its bound; returns 1 when one is
    worse than its bound or a workload failed an operation, else 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    docs = []
    for path in (parent_path, change_path):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    parent, change = (d["workloads"] for d in docs)
    print(f"path lengths {docs[0]['checkout_path_length']} -> "
          f"{docs[1]['checkout_path_length']}, lanes {docs[0]['lanes']} -> "
          f"{docs[1]['lanes']}")
    bad = 0
    for name in [n for n in parent if n in change]:
        a, b = parent[name], change[name]
        same = a["digests"] == b["digests"]
        print(f"{name}: failed {a['failed']}/{a['attempted']} -> "
              f"{b['failed']}/{b['attempted']}, digests {'equal' if same else 'DIFFER'}")
        bad |= b["failed"] > a["failed"]
        for metric, spec in bounds.items():
            pa, pb = a["metrics"][metric], b["metrics"][metric]
            ratio = pb["median"] / pa["median"] if pa["median"] else float("nan")
            worse = (ratio - 1) * (1 if spec["better"] == "lower" else -1)
            verdict = "WORSE THAN BOUND" if worse > spec["bound"] else "within bound"
            bad |= worse > spec["bound"]
            beyond = abs(pb["median"] - pa["median"]) > pa["q3"] - pa["q1"]
            print(f"  {metric:15} {pa['median']:10.4g} [{pa['q1']:.4g}-{pa['q3']:.4g}]"
                  f" -> {pb['median']:10.4g}  ratio {ratio:.3f}, worse by {worse:+.1%}"
                  f" (bound {spec['bound']:.0%}) {verdict}"
                  f"{', beyond parent IQR' if beyond else ''}")
    return int(bad)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--out", required=True)
    rec.add_argument("--quick", action="store_true")
    rec.add_argument("--checkout", default=ROOT)
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("parent")
    cmp_.add_argument("change")
    args = p.parse_args(argv)
    if args.command == "record":
        record(args.checkout, args.out, args.quick)
        return 0
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
