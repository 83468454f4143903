"""Command-line entry point for the adaptation pipeline.

Commands cover dataset preparation, the two training phases, baselines,
evaluation, hyperparameter grid search, embedding export, and the
umbrella `reproduce` command that renders the full comparison table.
Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 training divergence.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import config as config_file
from . import data, engine, evaluate, glyphs, losses, nn, sampling
from . import tensor_core as tc
from .seeding import derive_int

EXPERIMENTS = {
    "fcn-mnist-syn": "fcn",
    "cnn-mnist-syn": "cnn",
    "fcn-mnist-idx-target": "fcn",
}

# the roles of the four raw IDX files, in the order `glyphs.write_corpus`
# returns their paths, with the standard distribution's name for each
_MNIST_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _run_dir(args):
    """The run directory, created if missing."""
    run_dir = args.run_dir or os.environ.get("LRSDAG_RUN_DIR") or "runs"
    os.makedirs(run_dir, exist_ok=True)
    return run_dir


def _load_config(args):
    if getattr(args, "config", None):
        return config_file.load(args.config)
    return config_file.ExperimentConfig()


def _find_mnist(mnist_dir):
    """The raw IDX path of each role: the standard distribution's file,
    else the one `glyphs.write_corpus` writes (`data.idx_pair`)."""
    written = data.idx_pair(mnist_dir, "train") + data.idx_pair(mnist_dir, "test")
    found, missing = {}, []
    for (role, standard), own in zip(_MNIST_NAMES.items(), written):
        paths = (os.path.join(mnist_dir, standard), own)
        for path in paths:
            if os.path.exists(path):
                found[role] = path
                break
        else:
            names = ", ".join(os.path.basename(path) for path in paths)
            missing.append(f"{role} (one of {names})")
    if missing:
        raise data.DataError(
            f"missing IDX files under {mnist_dir}: {'; '.join(missing)}")
    return found


def _parse_syn_params(args):
    default = data.SynParams()
    values = {"flip_prob": default.flip_prob,
              "shear_max_deg": default.shear_max_deg}
    for name in ("brightness", "contrast"):
        values[f"{name}_lo"], values[f"{name}_hi"] = getattr(default, name)
    if args.syn_params_file:
        with open(args.syn_params_file, "r", encoding="utf-8") as fh:
            values.update(config_file.parse_assignments(
                fh.read(), dict.fromkeys(values, float)))
    return data.SynParams(
        flip_prob=values["flip_prob"],
        shear_max_deg=values["shear_max_deg"],
        brightness=(values["brightness_lo"], values["brightness_hi"]),
        contrast=(values["contrast_lo"], values["contrast_hi"]),
        seed=args.syn_seed,
    )


def _numbers(text):
    """The comma-separated numbers of a grid flag such as --lrs: at least
    one, each finite and nonnegative."""
    try:
        values = [float(v) for v in text.split(",") if v]
    except ValueError:
        values = None
    if not values or not all(math.isfinite(v) and v >= 0 for v in values):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite nonnegative numbers, got {text!r}")
    return values


def _load_prepared(data_dir, name, stem=None):
    """Split `name`, say "target_val" (domain "target", split "val"),
    preprocessed, from the IDX pair `stem` (by default "target-val")."""
    domain, split = name.split("_")
    stem = stem or f"{domain}-{split}"
    raw = data.load_idx_dataset(*data.idx_pair(data_dir, stem), domain, split)
    return dataclasses.replace(raw, images=data.preprocess(raw.images))


def _load_bundle(data_dir, target_dir=None, target_train_stem=None):
    target_dir = target_dir or data_dir
    return engine.DomainData(
        source_train=_load_prepared(data_dir, "source_train"),
        source_test=_load_prepared(data_dir, "source_test"),
        target_train=_load_prepared(target_dir, "target_train", target_train_stem),
        target_test=_load_prepared(target_dir, "target_test"),
    )


def cmd_prepare_data(args):
    # every argument is checked before the corpus is generated, which is
    # most of the command's time, and before anything is written
    if args.demo_size < 0:
        raise UsageError(f"prepare-data: --demo-size must be nonnegative, "
                         f"got {args.demo_size}")
    syn_params = _parse_syn_params(args)
    data.check_subsample_fraction(args.subsample_fraction)
    data.check_val_fraction(args.val_fraction)
    if args.demo_size:
        corpus = glyphs.write_corpus(args.mnist_dir, n_train=args.demo_size,
                                     n_test=max(args.demo_size // 5, 10),
                                     seed=args.syn_seed)
        paths = dict(zip(_MNIST_NAMES, corpus["train"] + corpus["test"]))
    else:
        paths = _find_mnist(args.mnist_dir)

    source_train = data.load_idx_dataset(paths["train_images"],
                                         paths["train_labels"],
                                         "source", "train")
    source_test = data.load_idx_dataset(paths["test_images"],
                                        paths["test_labels"],
                                        "source", "test")
    target_full = data.make_syn_mnist(source_train, syn_params)
    test_params = dataclasses.replace(syn_params,
                                      seed=derive_int(syn_params.seed, "test"))
    target_test = data.make_syn_mnist(source_test, test_params)
    target_train = data.subsample_labeled(target_full, args.subsample_fraction,
                                          seed=args.syn_seed)
    target_tune, target_val = data.split_train_val(target_train,
                                                   args.val_fraction,
                                                   seed=args.syn_seed)

    splits = (("source-train", source_train), ("source-test", source_test),
              ("target-train-full", target_full), ("target-train", target_train),
              ("target-tune", target_tune), ("target-val", target_val),
              ("target-test", target_test))
    os.makedirs(args.out_dir, exist_ok=True)
    files = {}
    for stem, ds in splits:
        images_path, labels_path = data.idx_pair(args.out_dir, stem)
        data.write_idx(images_path, ds.images[:, 0])
        data.write_idx(labels_path, ds.labels.astype(np.uint8))
        files[stem] = [os.path.basename(images_path), os.path.basename(labels_path)]
    manifest = {
        "syn_seed": args.syn_seed,
        "target_test_seed": test_params.seed,
        "subsample_fraction": args.subsample_fraction,
        "val_fraction": args.val_fraction,
        "demo_size": args.demo_size,
        "syn_params": {
            "flip_prob": syn_params.flip_prob,
            "shear_max_deg": syn_params.shear_max_deg,
            "brightness": list(syn_params.brightness),
            "contrast": list(syn_params.contrast),
        },
        "counts": {stem: len(ds) for stem, ds in splits},
        "files": files,
    }
    data.atomic_write_text(os.path.join(args.out_dir, "manifest.json"),
                           json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"prepared {len(source_train)} source / {len(target_train)} "
          f"subsampled target examples in {args.out_dir}")
    return 0


def cmd_train_source(args):
    cfg = _load_config(args)
    source_train = _load_prepared(args.data_dir, "source_train")
    run_dir = _run_dir(args)
    checkpoint = os.path.join(run_dir, "source.npz")
    _, history = engine._pretrain(source_train, cfg, cfg.seed, checkpoint)
    engine._write_loss_csv(os.path.join(run_dir, "source-loss.csv"), history)
    config_file.write_resolved(cfg, run_dir)
    final = history[-1] if history else float("nan")
    print(f"trained {cfg.model} for {cfg.source_epochs} epochs "
          f"(final loss {final:.6g}); checkpoint at {checkpoint}")
    return 0


def cmd_adapt(args):
    # the LRS-DAG cell of `reproduce`, started from the given checkpoint;
    # only the splits the objective reads are loaded (CLS reads no source)
    cfg = _load_config(args)
    reads = engine.METHODS["lrsdag"].reads(cfg)
    bundle = engine.DomainData(**{
        name: _load_prepared(args.data_dir, name) if name in reads else None
        for name in engine.SPLITS})
    trial = engine.Trial.start(bundle, cfg, cfg.seed, args.checkpoint, reads)
    run_dir = _run_dir(args)
    net, history = engine._fit(bundle, cfg, "lrsdag", cfg.seed, trial)
    adapted = os.path.join(run_dir, "adapted.npz")
    nn.save_checkpoint(net, adapted,
                       meta={"phase": "adapted", "loss": cfg.loss,
                             "sampling": cfg.sampling, "seed": cfg.seed})
    engine._write_loss_csv(os.path.join(run_dir, "adapt-loss.csv"), history)
    config_file.write_resolved(cfg, run_dir)
    print(f"adapted with {losses.LOSSES[cfg.loss].display}/{cfg.sampling} for "
          f"{len(history)} epochs; checkpoint at {adapted}")
    return 0


def cmd_baseline(args):
    cfg = _load_config(args)
    bundle = _load_bundle(args.data_dir)
    run_dir = _run_dir(args)
    averaged, _ = engine.run_trials(bundle, cfg, method=args.kind)
    evaluate.write_report([averaged], run_dir)
    engine._save_record(os.path.join(run_dir, f"baseline-{args.kind}.json"),
                        averaged)
    config_file.write_resolved(cfg, run_dir)
    acc = averaged.report.accuracy
    print(f"{averaged.method}: source {acc['source_without']:.2f} / "
          f"target {acc['target_without']:.2f}")
    return 0


def cmd_evaluate(args):
    net, meta = nn.load_checkpoint(args.checkpoint)
    bundle = _load_bundle(args.data_dir)
    run_dir = _run_dir(args)
    report = evaluate.evaluate_pair(net, bundle.source_test, bundle.target_test)
    record = engine.RunRecord(method=str(meta.get("phase", "model")),
                              strategy=str(meta.get("sampling", "-")),
                              report=report)
    evaluate.write_report([record], run_dir)
    for key in evaluate.CELLS:
        print(f"{key}: {report.accuracy[key]:.2f}")
    return 0


def cmd_grid_search(args):
    cfg = _load_config(args)
    bundle = _load_bundle(args.data_dir, target_train_stem="target-tune")
    val = _load_prepared(args.data_dir, "target_val")
    if len(val) == 0:
        raise data.DataError("validation split is empty; prepare data with a "
                             "larger corpus or validation fraction")
    best = engine.grid_search(args.lrs, args.weight_decays, bundle, val, cfg,
                              method=args.method,
                              pretrained_path=args.checkpoint)
    run_dir = _run_dir(args)
    config_file.write_resolved(best, run_dir, "best-config.txt")
    print(f"best lr {best.lr!r}, weight_decay {best.weight_decay!r} "
          f"(written to {os.path.join(run_dir, 'best-config.txt')})")
    return 0


def cmd_reproduce(args):
    cfg = _load_config(args)
    cfg = dataclasses.replace(cfg, model=EXPERIMENTS[args.experiment],
                              source=args.data_dir,
                              target=args.target_dir or args.data_dir)
    bundle = _load_bundle(args.data_dir, target_dir=args.target_dir)
    run_dir = _run_dir(args)
    engine.reproduce(bundle, cfg, run_dir)
    with open(os.path.join(run_dir, "report.txt"), "r", encoding="utf-8") as fh:
        print(fh.read(), end="")
    return 0


def cmd_export_embeddings(args):
    if args.cap is not None and args.cap < 1:
        raise UsageError(f"export-embeddings: --cap must be at least 1, "
                         f"got {args.cap}")
    net, _ = nn.load_checkpoint(args.checkpoint)
    source = _load_prepared(args.data_dir, f"source_{args.split}")
    target = _load_prepared(args.data_dir, f"target_{args.split}")
    paths = evaluate.export_embeddings(net, source, target, args.out_dir,
                                       cap=args.cap, seed=args.seed)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


def build_parser():
    parser = _Parser(prog="lrsdag",
                     description="Low-resource supervised domain adaptation "
                                 "with removable encoder layers.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    prep = sub.add_parser("prepare-data", help="ingest and synthesize datasets")
    prep.add_argument("--mnist-dir", required=True)
    prep.add_argument("--out-dir", required=True)
    prep.add_argument("--syn-seed", type=int, default=0)
    prep.add_argument("--syn-params-file", default=None)
    prep.add_argument("--subsample-fraction", type=float, default=0.1)
    prep.add_argument("--val-fraction", type=float, default=0.1)
    prep.add_argument("--demo-size", type=int, default=0,
                      help="generate a procedural digit corpus of this many "
                           "training examples into --mnist-dir first")
    prep.set_defaults(func=cmd_prepare_data)

    train = sub.add_parser("train-source", help="phase-1 source training")
    train.add_argument("--config", default=None)
    train.add_argument("--data-dir", required=True)
    train.add_argument("--run-dir", default=None)
    train.set_defaults(func=cmd_train_source)

    ad = sub.add_parser("adapt", help="phase-2 encoder training")
    ad.add_argument("--config", default=None)
    ad.add_argument("--data-dir", required=True)
    ad.add_argument("--checkpoint", required=True)
    ad.add_argument("--run-dir", default=None)
    ad.set_defaults(func=cmd_adapt)

    base = sub.add_parser("baseline", help="run a reference procedure")
    base.add_argument("--kind", required=True, choices=engine.BASELINE_KINDS)
    base.add_argument("--config", default=None)
    base.add_argument("--data-dir", required=True)
    base.add_argument("--run-dir", default=None)
    base.set_defaults(func=cmd_baseline)

    ev = sub.add_parser("evaluate", help="score a checkpoint on both domains")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data-dir", required=True)
    ev.add_argument("--run-dir", default=None)
    ev.set_defaults(func=cmd_evaluate)

    grid = sub.add_parser("grid-search", help="select lr and weight decay")
    grid.add_argument("--config", default=None)
    grid.add_argument("--data-dir", required=True)
    grid.add_argument("--lrs", required=True, type=_numbers,
                      help="comma-separated learning rates")
    grid.add_argument("--weight-decays", required=True, type=_numbers,
                      help="comma-separated weight decays")
    grid.add_argument("--method", default="lrsdag", choices=tuple(engine.METHODS))
    grid.add_argument("--checkpoint", default=None,
                      help="existing phase-1 checkpoint shared by every "
                           "candidate; without it each trains its own")
    grid.add_argument("--run-dir", default=None)
    grid.set_defaults(func=cmd_grid_search)

    rep = sub.add_parser("reproduce",
                         help="all methods, all trials, rendered table")
    rep.add_argument("--experiment", required=True, choices=sorted(EXPERIMENTS))
    rep.add_argument("--config", default=None)
    rep.add_argument("--data-dir", required=True)
    rep.add_argument("--target-dir", default=None,
                     help="directory with externally converted target IDX "
                          "files (fcn-mnist-idx-target)")
    rep.add_argument("--run-dir", default=None)
    rep.set_defaults(func=cmd_reproduce)

    exp = sub.add_parser("export-embeddings",
                         help="dump split features for external projection")
    exp.add_argument("--checkpoint", required=True)
    exp.add_argument("--data-dir", required=True)
    exp.add_argument("--out-dir", required=True)
    exp.add_argument("--split", default="test", choices=("train", "test"))
    exp.add_argument("--cap", type=int, default=None)
    exp.add_argument("--seed", type=int, default=0)
    exp.set_defaults(func=cmd_export_embeddings)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except config_file.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except engine.NonFiniteLoss as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except (data.DataError, sampling.SamplingError, losses.LossError,
            nn.NetworkError, tc.TensorError, engine.EngineError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
