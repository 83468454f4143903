"""The four benchmark workloads: set-up, one repetition, output checks.

Every workload is a closed loop with one caller: each top-level call
(a CLI command or one cell) starts when the previous one returns. All
inputs come from the workload seed: the glyph corpus, the synthetic
target transform and the experiment config. Sizes are chosen so that one
repetition takes a few seconds on a 2-core machine and a run of
`--seconds 15` holds at least two repetitions.
"""

import contextlib
import hashlib
import io
import json
import os
import time
import traceback

import numpy as np

from lrsdag import cli, data, engine, evaluate, glyphs
from lrsdag.seeding import derive_int

# Early stopping fires when two epoch losses differ by less than this;
# at 1e-300 it never does, so the epoch count does not depend on rounding.
NO_EARLY_STOP = 1e-300

# Phase 1 for both CNN workloads: small batches so that three epochs on
# 300 glyphs reach about 94% source accuracy.
CNN_PRETRAIN = dict(model="cnn", batch_size=32, lr=0.003, source_epochs=3)


def sha256_bytes(payload):
    return hashlib.sha256(payload).hexdigest()


def sha256_file(path):
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def run_cli(argv):
    """One `lrsdag` command in this process; its stdout is swallowed so
    the benchmark's own last line stays the result."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"lrsdag {argv[0]} exited with code {code}")


def make_corpus(root, seed, n_train, n_test, subsample):
    """Glyph corpus plus `prepare-data` output; returns the prepared dir."""
    raw = os.path.join(root, "raw")
    prepared = os.path.join(root, "prepared")
    glyphs.write_corpus(raw, n_train, n_test, seed)
    run_cli(["prepare-data", "--mnist-dir", raw, "--out-dir", prepared,
             "--syn-seed", str(seed), "--subsample-fraction", str(subsample)])
    return prepared


def load_split(prepared, stem, name, split):
    """Read one prepared IDX pair the way the CLI does (28 -> 32, [-1, 1])."""
    images = data.read_idx(os.path.join(prepared, f"{stem}-images.idx"))
    labels = data.read_idx(os.path.join(prepared, f"{stem}-labels.idx"),
                           rescale=False).astype(np.int64)
    return data.Dataset(images=data.preprocess(images[:, None]), labels=labels,
                        name=name, split=split)


def load_bundle(prepared):
    return engine.DomainData(
        source_train=load_split(prepared, "source-train", "source", "train"),
        source_test=load_split(prepared, "source-test", "source", "test"),
        target_train=load_split(prepared, "target-train", "target", "train"),
        target_test=load_split(prepared, "target-test", "target", "test"),
    )


def pretrain_cnn(bundle, seed, checkpoint_path=None):
    """Phase 1 on the CNN with CNN_PRETRAIN; returns (net, loss history)."""
    cfg = engine.ExperimentConfig(seed=seed, **CNN_PRETRAIN)
    net = engine.build_model(cfg.model, derive_int(seed, "init"))
    _, history = engine.train_source(net, bundle.source_train, cfg, seed=seed,
                                     checkpoint_path=checkpoint_path)
    return net, history


def report_digest(records):
    """Digest of rendered report rows, confusion counts and loss curves;
    wall-clock fields are left out."""
    payload = [{"method": r.method, "strategy": r.strategy,
                "confusion": {k: v.tolist() for k, v in sorted(r.report.confusion.items())},
                "loss_history": [repr(v) for v in r.loss_history]}
               for r in records]
    text = evaluate.render_report(records)[1]
    return sha256_bytes((text + json.dumps(payload, sort_keys=True)).encode())


def nearest_mean_accuracy(train_images, train_labels, images, labels):
    """Accuracy (%) of a nearest class-mean classifier: a fixed reference
    for how learnable prepared data is, independent of lrsdag's models."""
    x = train_images.reshape(len(train_images), -1).astype(np.float64)
    means = np.stack([x[train_labels == k].mean(axis=0) for k in range(10)])
    y = images.reshape(len(images), -1).astype(np.float64)
    dist = (y * y).sum(1)[:, None] - 2.0 * y @ means.T + (means * means).sum(1)[None]
    return float(np.mean(np.argmin(dist, axis=1) == labels) * 100.0)


class Rep:
    """Bookkeeping for one repetition: timed top-level calls, the checks
    each call failed, per-call digests and the accuracy figures."""

    def __init__(self, probes, trace=None):
        self.probes = probes
        self.trace = trace
        self.wall_s = 0.0
        self.labels = []
        self.failures = {}
        self.digests = {}
        self.accuracy = {}
        self.examples = 0

    def call(self, label, fn, *args, **kwargs):
        """Time one top-level call; returns (ok, result)."""
        self.labels.append(label)
        scope = (self.trace.root(f"op.{label}") if self.trace is not None
                 else contextlib.nullcontext())
        probe_s = self.probes.overhead_s
        started = time.perf_counter()
        try:
            with scope:
                out = fn(*args, **kwargs)
        except Exception:  # a failed call is counted, the loop goes on
            self.fail(label, traceback.format_exc(limit=4))
            out = None
        self.wall_s += time.perf_counter() - started - (self.probes.overhead_s - probe_s)
        return label not in self.failures, out

    def check(self, label, ok, message):
        if not ok:
            self.fail(label, message)

    def fail(self, label, message):
        self.failures.setdefault(label, []).append(message)

    def check_frozen(self, label):
        breaks = self.probes.freeze_breaks
        self.check(label, not breaks,
                   f"N1/N2 checksum changed across adaptation: {breaks}")
        breaks.clear()


def _fresh(path):
    if os.path.exists(path):
        raise RuntimeError(f"{path} exists; every measured run needs a fresh directory")
    return path


class FcnReproduce:
    """`lrsdag reproduce --experiment fcn-mnist-syn` into a fresh run dir.

    Why: the paper's comparison table end to end, all 14 method rows.
    Phase 1 is dominated by nn.Linear and Adam.step; no conv work.
    """

    name = "fcn-reproduce"
    n_train, n_test, subsample = 600, 300, 0.2
    source_epochs, adapt_epochs, trials = 5, 20, 1

    def sizes(self):
        return {"source_train": self.n_train, "test_per_domain": self.n_test,
                "subsample_fraction": self.subsample, "trials": self.trials,
                "source_epochs": self.source_epochs,
                "max_adapt_epochs": self.adapt_epochs, "batch_size": 128}

    def setup(self, root, seed):
        prepared = make_corpus(root, seed, self.n_train, self.n_test, self.subsample)
        cfg_path = os.path.join(root, "experiment.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(f"trials = {self.trials}\n"
                     f"source_epochs = {self.source_epochs}\n"
                     f"max_adapt_epochs = {self.adapt_epochs}\n"
                     f"stop_threshold = {NO_EARLY_STOP!r}\n"
                     f"seed = {seed}\n")
        return {"prepared": prepared, "config": cfg_path}

    def run(self, state, rep_dir, rep):
        run_dir = _fresh(os.path.join(rep_dir, "run"))
        label = "reproduce"
        cells_before = rep.probes.cells
        ok, _ = rep.call(label, run_cli, [
            "reproduce", "--experiment", "fcn-mnist-syn",
            "--config", state["config"], "--data-dir", state["prepared"],
            "--run-dir", run_dir])
        rep.check_frozen(label)
        if not ok:
            return
        expected = len(engine.method_inventory()) * self.trials
        computed = rep.probes.cells - cells_before
        rep.check(label, computed == expected,
                  f"{computed} cells computed, expected {expected} (resumed?)")
        cells = sorted(os.listdir(os.path.join(run_dir, "cells")))
        rep.check(label, len(cells) == expected,
                  f"{len(cells)} cell files, expected {expected}")
        loaded = {}
        for name in cells:
            with open(os.path.join(run_dir, "cells", name), encoding="utf-8") as fh:
                loaded[name] = json.load(fh)
        target, source = [], []
        for name, cell in loaded.items():
            if name.startswith("baseline.finetune_n2."):
                rep.check(label, len(cell["loss_history"]) == self.adapt_epochs,
                          f"{name}: {len(cell['loss_history'])} finetune epochs, "
                          f"expected {self.adapt_epochs}")
            if not name.startswith("lrsdag."):
                continue
            # the "Source only" row of the same trial scores the shared
            # pretrained checkpoint
            trial = name.rsplit(".", 2)[1]
            pretrained = loaded[f"baseline.source_trained.-.{trial}.json"]
            rep.check(label, cell["report"]["confusion"]["source_without"]
                      == pretrained["report"]["confusion"]["source_without"],
                      f"{name}: source confusion with the encoder bypassed "
                      f"differs from the pretrained model's")
            rep.check(label, len(cell["loss_history"]) == self.adapt_epochs,
                      f"{name}: {len(cell['loss_history'])} adapt epochs, "
                      f"expected {self.adapt_epochs}")
            target.append(cell["report"]["accuracy"]["target_with"])
            source.append(cell["report"]["accuracy"]["source_without"])
        rep.digests[label] = {
            "report.txt": sha256_file(os.path.join(run_dir, "report.txt")),
            "report.csv": sha256_file(os.path.join(run_dir, "report.csv")),
            "cell_losses": sha256_bytes(json.dumps(
                {name: [repr(v) for v in cell["loss_history"]]
                 for name, cell in loaded.items()}, sort_keys=True).encode()),
        }
        rep.accuracy = {"target": float(np.mean(target)), "source": float(np.mean(source))}
        rep.examples = rep.probes.examples


# one cell per loss kind, indirect sampler where a sampler is needed,
# plus the random sampler on the paper's main loss
CNN_CELLS = (("cls", "indirect"), ("cls_mse", "indirect"), ("cls_kl", "indirect"),
             ("cls_norm", "indirect"), ("cls_kl_rev", "indirect"),
             ("coral", "indirect"), ("cls_kl", "random"))


class CnnAdapt:
    """Phase 2 plus evaluation on the CNN from a pretrained checkpoint.

    Why: N1 and N2 are frozen here, so this is where frozen recompute,
    frozen weight gradients, per-cell feature_matrix and the double N1
    pass in evaluate_pair cost time; CORAL's 8192x8192 covariance makes
    `losses` dominant in its cell.
    """

    name = "cnn-adapt"
    n_train, subsample = 300, 0.2
    # Each cell is scored on its own slice of the test sets, so the mean
    # accuracy over the cells rests on len(CNN_CELLS) slices of examples
    # at the evaluation cost of one.
    test_slice = 40
    n_test = test_slice * len(CNN_CELLS)
    adapt_epochs = 1

    def sizes(self):
        return {"source_train": self.n_train, "test_per_domain": self.n_test,
                "test_per_cell": self.test_slice, "subsample_fraction": self.subsample,
                "max_adapt_epochs": self.adapt_epochs, "batch_size": 128,
                "cells": ["/".join(c) for c in CNN_CELLS], "pretrain": CNN_PRETRAIN}

    def setup(self, root, seed):
        prepared = make_corpus(root, seed, self.n_train, self.n_test, self.subsample)
        bundle = load_bundle(prepared)
        ckpt = os.path.join(root, "pretrained.npz")
        net, _ = pretrain_cnn(bundle, seed, checkpoint_path=ckpt)
        bundles, source_confusion = [], []
        for i in range(len(CNN_CELLS)):
            rows = np.arange(i * self.test_slice, (i + 1) * self.test_slice)
            cell = engine.DomainData(
                source_train=bundle.source_train, target_train=bundle.target_train,
                source_test=bundle.source_test.select(rows),
                target_test=bundle.target_test.select(rows))
            bundles.append(cell)
            source_confusion.append(evaluate.confusion_matrix(net, cell.source_test))
        return {"bundles": bundles, "checkpoint": ckpt, "seed": seed,
                "source_confusion": source_confusion}

    def run(self, state, rep_dir, rep):
        target, source = [], []
        for i, (loss, strategy) in enumerate(CNN_CELLS):
            label = f"{loss}/{strategy}"
            cfg = engine.ExperimentConfig(
                model="cnn", loss=loss, sampling=strategy, batch_size=128,
                max_adapt_epochs=self.adapt_epochs, stop_threshold=NO_EARLY_STOP,
                trials=1, seed=state["seed"])
            ok, rec = rep.call(label, engine.run_lrsdag, state["bundles"][i], cfg,
                               seed=state["seed"], pretrained_path=state["checkpoint"])
            rep.check_frozen(label)
            if not ok:
                continue
            rep.check(label, np.array_equal(rec.report.confusion["source_without"],
                                            state["source_confusion"][i]),
                      "source confusion with the encoder bypassed differs "
                      "from the pretrained model's")
            rep.check(label, len(rec.loss_history) == self.adapt_epochs,
                      f"{len(rec.loss_history)} adapt epochs, expected {self.adapt_epochs}")
            rep.digests[label] = {"report": report_digest([rec])}
            target.append(rec.report.accuracy["target_with"])
            source.append(rec.report.accuracy["source_without"])
        if target:
            rep.accuracy = {"target": float(np.mean(target)),
                            "source": float(np.mean(source))}
        rep.examples = rep.probes.examples


class CnnPretrain:
    """engine.train_source on the CNN, then evaluate_pair.

    Why: every conv layer is trainable, so weight gradients, col2im down
    to the input and Adam all do real work. This is the bypass workload
    for frozen-half savings (no change predicted) and the target of a
    faster conv backward.
    """

    name = "cnn-pretrain"
    # evaluation forward passes count in nn.conv_fwd_s; 150 test images a
    # domain keep them a minority of it while the accuracy stays steady
    n_train, n_test, subsample = 300, 150, 0.2

    def sizes(self):
        return {"source_train": self.n_train, "test_per_domain": self.n_test,
                "pretrain": CNN_PRETRAIN}

    def setup(self, root, seed):
        prepared = make_corpus(root, seed, self.n_train, self.n_test, self.subsample)
        return {"bundle": load_bundle(prepared), "seed": seed}

    def _pretrain(self, bundle, seed):
        net, history = pretrain_cnn(bundle, seed)
        report = evaluate.evaluate_pair(net, bundle.source_test, bundle.target_test)
        return net, history, report

    def run(self, state, rep_dir, rep):
        label = "pretrain"
        ok, out = rep.call(label, self._pretrain, state["bundle"], state["seed"])
        if not ok:
            return
        net, history, report = out
        rep.check(label, len(history) == CNN_PRETRAIN["source_epochs"]
                  and all(np.isfinite(history)), f"bad loss history {history}")
        record = engine.RunRecord(method="pretrain", strategy="-",
                                  loss_history=tuple(history), report=report,
                                  seeds={}, config={})
        rep.digests[label] = {
            "params": sha256_bytes(net.param_bytes(("n1", "n2"))),
            "report": report_digest([record]),
        }
        rep.accuracy = {"target": report.accuracy["target_without"],
                        "source": report.accuracy["source_without"]}
        rep.examples = rep.probes.examples


class PrepareData:
    """`lrsdag prepare-data --demo-size N` into fresh directories.

    Why: the only workload where `glyphs` and the write path of `data`
    run; the others read IDX only, in set-up. There is no model, so its
    accuracy metrics come from a nearest class-mean reference classifier
    fit on the prepared source-train split.
    """

    name = "prepare-data"
    demo_size = 500
    warmup_size = 50

    def sizes(self):
        return {"demo_size": self.demo_size, "test_per_domain": self.demo_size // 5,
                "setup_warmup_demo_size": self.warmup_size}

    def _prepare(self, root, seed, size):
        run_cli(["prepare-data", "--mnist-dir", os.path.join(root, "raw"),
                 "--out-dir", os.path.join(root, "prepared"),
                 "--demo-size", str(size), "--syn-seed", str(seed)])

    def setup(self, root, seed):
        # nothing to prepare but the first-call costs: one small pass of
        # the same command, so they are paid before timing
        self._prepare(root, seed, self.warmup_size)
        return {"seed": seed}

    def run(self, state, rep_dir, rep):
        label = "prepare-data"
        for sub in ("raw", "prepared"):
            _fresh(os.path.join(rep_dir, sub))
        ok, _ = rep.call(label, self._prepare, rep_dir, state["seed"], self.demo_size)
        if not ok:
            return
        prepared = os.path.join(rep_dir, "prepared")
        with open(os.path.join(prepared, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        digests = {}
        for sub in ("raw", "prepared"):
            for name in sorted(os.listdir(os.path.join(rep_dir, sub))):
                if name.endswith(".idx"):
                    digests[f"{sub}/{name}"] = sha256_file(os.path.join(rep_dir, sub, name))
        split = {}
        for stem, count in manifest["counts"].items():
            images = data.read_idx(os.path.join(prepared, f"{stem}-images.idx"), rescale=False)
            labels = data.read_idx(os.path.join(prepared, f"{stem}-labels.idx"), rescale=False)
            rep.check(label, len(images) == len(labels) == count,
                      f"{stem}: {len(images)} images / {len(labels)} labels, manifest {count}")
            split[stem] = (images, labels.astype(np.int64))
        expected = {"source-train": self.demo_size, "source-test": self.demo_size // 5}
        for stem, count in expected.items():
            rep.check(label, manifest["counts"][stem] == count,
                      f"{stem}: {manifest['counts'][stem]} examples, expected {count}")
        rep.digests[label] = {"idx": sha256_bytes(json.dumps(digests, sort_keys=True).encode()),
                              "manifest": sha256_file(os.path.join(prepared, "manifest.json"))}
        # scored on the train splits (demo_size examples each) rather than
        # the test splits (a fifth of that), for a steadier figure
        train = split["source-train"]
        rep.accuracy = {"source": nearest_mean_accuracy(*train, *train),
                        "target": nearest_mean_accuracy(*train, *split["target-train-full"])}
        rep.examples = self.demo_size + self.demo_size // 5


WORKLOADS = {w.name: w for w in (FcnReproduce(), CnnAdapt(), CnnPretrain(), PrepareData())}
