"""Hash every output of the CLI's command chains, or compare two such records.

    python3 tools/cli_outputs.py run DIR [--checkout PATH] [--quick]
    python3 tools/cli_outputs.py compare A B

`run` makes DIR, which must not exist, and runs the command chains of the
checkout (this one by default) in DIR/work, every path relative to it, so
that the printed paths do not depend on DIR.  The FCN and then the CNN
chain run `train-source`, `adapt` (cls, cls_kl/indirect, coral/random),
`evaluate` and `export-embeddings` of the adapted model, three
`grid-search`es (lrsdag from the phase-1 checkpoint, finetune_n2 and
target_trained each training their own), the three `baseline`s and
`reproduce`, on data one `prepare-data` makes first.  Each command's
stdout is kept in DIR/work/stdout, and DIR/sha256.json gets one SHA-256
per file under DIR/work.  A JSON record's `wall_clock`, which times the
run, is left out of its hash.  `--quick` runs a smaller corpus, one epoch
and one trial.

`compare` names every file whose hash differs between two `run` dirs, or
that only one of them holds, and exits 1 if there is one.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ADAPTS = (("cls", "indirect"), ("cls_kl", "indirect"), ("coral", "random"))
BASELINES = ("source_trained", "target_trained", "finetune_n2")
DIGESTS = "sha256.json"


def chain(model):
    """(stdout name, argv) of one model's commands after `prepare-data`."""
    data, cfg = ("--data-dir", "prepared"), ("--config", f"{model}.cfg")
    source = f"{model}/source/source.npz"
    adapted = f"{model}/adapt-cls_kl-indirect/adapted.npz"
    steps = [("train-source", ["train-source", *cfg, *data, "--run-dir", f"{model}/source"])]
    for loss, strategy in ADAPTS:
        name = f"adapt-{loss}-{strategy}"
        steps.append((name, ["adapt", "--config", f"{model}-{name}.cfg", *data,
                             "--checkpoint", source, "--run-dir", f"{model}/{name}"]))
    steps += [
        ("evaluate", ["evaluate", "--checkpoint", adapted, *data,
                      "--run-dir", f"{model}/evaluate"]),
        ("export-embeddings", ["export-embeddings", "--checkpoint", adapted, *data,
                               "--out-dir", f"{model}/embeddings", "--cap", "20"]),
        ("grid-lrsdag", ["grid-search", *cfg, *data, "--lrs", "0.001,0.01",
                         "--weight-decays", "0,0.0001", "--checkpoint", source,
                         "--run-dir", f"{model}/grid-lrsdag"]),
    ]
    for method in ("finetune_n2", "target_trained"):
        steps.append((f"grid-{method}", ["grid-search", *cfg, *data, "--lrs", "0.001,0.01",
                                         "--weight-decays", "0", "--method", method,
                                         "--run-dir", f"{model}/grid-{method}"]))
    for kind in BASELINES:
        steps.append((f"baseline-{kind}", ["baseline", "--kind", kind, *cfg, *data,
                                           "--run-dir", f"{model}/baseline-{kind}"]))
    steps.append(("reproduce", ["reproduce", "--experiment", f"{model}-mnist-syn", *cfg,
                                *data, "--run-dir", f"{model}/reproduce"]))
    return [(f"{model}.{name}", argv) for name, argv in steps]


def write_configs(work, quick):
    epochs, trials = (1, 1) if quick else (2, 2)
    for model in ("fcn", "cnn"):
        base = (f"model = {model}\nsource_epochs = {epochs}\n"
                f"max_adapt_epochs = {epochs}\nbatch_size = 16\ntrials = {trials}\n"
                "stop_threshold = 1e-9\n")
        with open(os.path.join(work, f"{model}.cfg"), "w", encoding="utf-8") as fh:
            fh.write(base)
        for loss, strategy in ADAPTS:
            with open(os.path.join(work, f"{model}-adapt-{loss}-{strategy}.cfg"), "w",
                      encoding="utf-8") as fh:
                fh.write(f"{base}loss = {loss}\nsampling = {strategy}\n")


def file_digest(path):
    """SHA-256 of the file's bytes, or of a JSON record without its
    `wall_clock`."""
    with open(path, "rb") as fh:
        payload = fh.read()
    if path.endswith(".json"):
        try:
            record = json.loads(payload)
        except ValueError:
            record = None
        if isinstance(record, dict) and "wall_clock" in record:
            del record["wall_clock"]
            payload = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def record(run_dir):
    """Write run_dir's digests file: every file under run_dir/work by its
    relative path."""
    work = os.path.join(run_dir, "work")
    digests = {}
    for parent, _, names in os.walk(work):
        for name in names:
            path = os.path.join(parent, name)
            digests[os.path.relpath(path, work)] = file_digest(path)
    with open(os.path.join(run_dir, DIGESTS), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return digests


def run(run_dir, checkout, quick):
    work = os.path.join(run_dir, "work")
    os.makedirs(os.path.join(work, "stdout"))
    write_configs(work, quick)
    env = {k: v for k, v in os.environ.items() if k != "LRSDAG_RUN_DIR"}
    env["PYTHONPATH"] = os.path.join(os.path.abspath(checkout), "src")
    size = "100" if quick else "200"
    steps = [("prepare-data", ["prepare-data", "--mnist-dir", "raw", "--out-dir", "prepared",
                               "--demo-size", size, "--subsample-fraction", "0.5"])]
    steps += chain("fcn") + chain("cnn")
    for name, argv in steps:
        print(name, file=sys.stderr)
        done = subprocess.run([sys.executable, "-m", "lrsdag.cli", *argv], cwd=work,
                              env=env, capture_output=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            raise SystemExit(f"{name} exited {done.returncode}")
        with open(os.path.join(work, "stdout", f"{name}.txt"), "wb") as fh:
            fh.write(done.stdout)
    print(f"{len(record(run_dir))} files hashed into {os.path.join(run_dir, DIGESTS)}")


def compare(a, b):
    """Print each file whose digest differs between the `run` dirs a and b;
    returns 1 if there is one, else 0."""
    digests = []
    for run_dir in (a, b):
        with open(os.path.join(run_dir, DIGESTS), encoding="utf-8") as fh:
            digests.append(json.load(fh))
    names = sorted(set(digests[0]) | set(digests[1]))
    differ = [n for n in names if digests[0].get(n) != digests[1].get(n)]
    for name in differ:
        where = [d for d, digest in zip((a, b), digests) if name in digest]
        print(f"{name}: {'differs' if len(where) == 2 else 'only in ' + where[0]}")
    print(f"{len(names)} files, {len(differ)} differ")
    return int(bool(differ))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    run_ = sub.add_parser("run")
    run_.add_argument("dir")
    run_.add_argument("--checkout", default=ROOT)
    run_.add_argument("--quick", action="store_true")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = p.parse_args(argv)
    if args.command == "run":
        run(args.dir, args.checkout, args.quick)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
