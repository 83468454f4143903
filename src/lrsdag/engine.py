"""Two-phase training, baselines, stopping, grid search, and trials.

Phase 1 trains the full classifier on the source domain with
cross-entropy.  Phase 2 inserts the encoder block at the split, freezes
both original halves, and trains only the encoder on the low-resource
target set under one of the adaptation objectives; alignment gradients
enter at the encoder output, classification gradients pass backward
through the frozen head as a conduit.  Removing the encoder afterwards
restores the phase-1 model bit for bit.
"""

import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import data, evaluate, losses, nn, sampling
from . import tensor_core as tc
from .seeding import derive_int, derive_rng

MODELS = {"fcn": nn.build_fcn, "cnn": nn.build_cnn}


class EngineError(Exception):
    pass


class ConfigError(EngineError):
    pass


class NonFiniteLoss(EngineError):
    """Training diverged; `epoch` records where."""

    def __init__(self, message, epoch):
        super().__init__(message)
        self.epoch = epoch


@dataclass(frozen=True)
class ExperimentConfig:
    """Hyperparameters and identifiers for one experiment."""

    model: str = "fcn"
    source: str = ""
    target: str = ""
    loss: str = "cls_kl"
    sampling: str = "indirect"
    lr: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 128
    source_epochs: int = 100
    stop_threshold: float = 1e-3
    max_adapt_epochs: int = 200
    trials: int = 3
    seed: int = 0
    align_weight: float = 1.0
    encoder_noise: float = 1e-2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {tuple(MODELS)}, got {self.model!r}")
        if self.loss not in losses.LOSSES:
            raise ConfigError(f"unknown loss kind {self.loss!r}")
        if self.sampling not in sampling.SAMPLER_KINDS:
            raise ConfigError(f"unknown sampling kind {self.sampling!r}")
        for name in ("lr", "weight_decay", "align_weight", "encoder_noise"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.source_epochs < 0:
            raise ConfigError("source_epochs must be nonnegative")
        if self.stop_threshold <= 0:
            raise ConfigError("stop_threshold must be positive")
        if self.max_adapt_epochs < 1:
            raise ConfigError("max_adapt_epochs must be at least 1")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")

    def snapshot(self):
        return asdict(self)


@dataclass(frozen=True)
class DomainData:
    """The four dataset splits one experiment consumes."""

    source_train: data.Dataset
    source_test: data.Dataset
    target_train: data.Dataset
    target_test: data.Dataset


@dataclass
class RunRecord:
    """Outcome of one trained-and-evaluated method."""

    method: str
    strategy: str
    loss_history: tuple
    report: evaluate.EvalReport
    seeds: dict
    config: dict
    wall_clock: float = 0.0


def build_model(model, seed):
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}")
    return MODELS[model](seed)


def checksum(net, blocks=("n1", "n2")):
    """SHA-256 over raw parameter bytes of the named blocks."""
    return hashlib.sha256(net.param_bytes(blocks)).hexdigest()


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg.snapshot(), sort_keys=True).encode()).hexdigest()[:16]


def stopping_check(history, threshold):
    """True once the last two epoch losses differ by less than threshold."""
    if threshold <= 0:
        raise ConfigError("stop threshold must be positive")
    return len(history) >= 2 and abs(history[-1] - history[-2]) < threshold


@dataclass(frozen=True)
class _SplitInputs:
    """n1 output over a dataset, in the form `data.batches` reads."""

    images: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return len(self.labels)


def _training_inputs(net, ds):
    """What each training step feeds the network, and the pass taking it.

    With every n1 layer frozen, f(x) is a constant of the fit: n1 runs
    once over the whole set and each step runs only the encoder and n2.
    Otherwise steps take the images and run the whole network.
    """
    if len(ds) == 0:
        raise EngineError(f"{ds.name} {ds.split} set is empty; nothing to train on")
    if all(layer.frozen for layer in net.n1):
        feats = evaluate.feature_matrix(net, ds)
        return (_SplitInputs(feats.reshape((len(ds),) + net.split_shape), ds.labels),
                net.head)
    return ds, net.forward


def _train(net, ds, cfg, seed, tag, epochs, align=None, min_rows=1,
           stop_threshold=None):
    """The loop of both phases; returns the per-epoch mean loss.

    Each step takes the cross-entropy plus, given `align(split, n)`, the
    weighted alignment value and split gradient it returns; `align` also
    puts the encoder in the forward, backward and optimizer.  Batches
    under `min_rows` rows are skipped; frozen layers never step.  The
    parameters of every frozen layer are copied before the loop, and
    EngineError, naming the block, is raised if any bit of them differs
    after it (so even 0.0 -> -0.0 counts as a change).
    """
    frozen = [(name, p, p.value.copy())
              for name, layers in net.blocks().items()
              for layer in layers if layer.frozen for p in layer.params()]
    use_encoder = align is not None
    opt = nn.Adam(net.layers(use_encoder=use_encoder), lr=cfg.lr,
                  weight_decay=cfg.weight_decay)
    shuffle_seed = derive_int(seed, "epochs", tag)
    inputs, run = _training_inputs(net, ds)
    history = []
    for epoch in range(epochs):
        total, count = 0.0, 0
        for x, labels in data.batches(inputs, cfg.batch_size, shuffle=True,
                                      seed=shuffle_seed, epoch=epoch):
            if len(labels) < min_rows:
                continue
            try:
                split, logits = run(x, use_encoder=use_encoder)
                value, split_grad = align(split, len(labels)) if align else (0.0, None)
                value += tc.cross_entropy(logits, labels)
                if not math.isfinite(value):
                    raise NonFiniteLoss(f"non-finite loss at epoch {epoch}", epoch)
                net.zero_grad()
                net.backward(tc.cross_entropy_grad(logits, labels),
                             use_encoder=use_encoder, split_grad=split_grad)
                opt.step()
            except (tc.NonFiniteValue, nn.NonFiniteGradient) as exc:
                raise NonFiniteLoss(
                    f"training diverged at epoch {epoch}: {exc}", epoch) from exc
            total += value * len(labels)
            count += len(labels)
        if count == 0:
            raise EngineError(f"every {ds.name} {ds.split} batch has fewer than "
                              f"the {min_rows} rows the objective needs")
        history.append(total / count)
        if stop_threshold is not None and stopping_check(history, stop_threshold):
            break
    for name, p, saved in frozen:
        if not np.array_equal(p.value.view(np.uint64), saved.view(np.uint64)):
            raise EngineError(f"frozen block {name} changed during the {tag} fit")
    return history


def train_source(net, source_train, cfg, seed=None, checkpoint_path=None):
    """Phase 1: train the encoder-less classifier on the source domain.

    The checkpoint, if asked for, records the phase, the seed and the
    hash of `cfg`.
    """
    if net.encoder is not None:
        raise nn.EncoderAlreadyPresent("phase-1 training expects no encoder")
    seed = cfg.seed if seed is None else seed
    history = _train(net, source_train, cfg, seed, "source", cfg.source_epochs)
    if checkpoint_path is not None:
        nn.save_checkpoint(net, checkpoint_path,
                           meta={"phase": "source", "seed": seed,
                                 "config_hash": config_hash(cfg)})
    return net, history


def adapt(net, target_train, sampler, cfg, seed=None):
    """Phase 2: insert the encoder and align target features to source.

    The objective is cfg.loss with weight cfg.align_weight; a loss that
    needs reference features without a `sampler` raises EngineError
    before the network is touched.  N1 and N2 are frozen; only encoder
    parameters step, and `_train` raises EngineError if any bit of N1 or
    N2 differs afterwards.  The N1 features f(T) of the whole target set
    are computed once, before the first epoch; each step runs the
    encoder and N2 on its rows of them, and backpropagates through N2
    (input gradients only) into the encoder.  Batches too small for the
    alignment term are skipped.  Stops on the epoch-loss delta falling
    under cfg.stop_threshold or after cfg.max_adapt_epochs.
    """
    seed = cfg.seed if seed is None else seed
    loss = losses.LOSSES[cfg.loss]
    if loss.needs_sampler and sampler is None:
        raise EngineError(f"loss {cfg.loss!r} needs a feature sampler")
    nn.build_encoder(net, seed, noise_scale=cfg.encoder_noise)
    nn.set_frozen(net, ("n1", "n2"), True)
    weight = cfg.align_weight

    def align(split, n):
        flat = split.reshape(n, -1)
        ref = sampler.draw(n) if loss.needs_sampler else flat
        value, grad = losses.alignment(cfg.loss, ref, flat)
        return weight * value, (weight * grad).reshape(split.shape)

    history = _train(net, target_train, cfg, seed, "adapt", cfg.max_adapt_epochs,
                     align=align, min_rows=loss.min_rows,
                     stop_threshold=cfg.stop_threshold)
    return net, history


def source_sampler(net, source_train, cfg, seed):
    """The cfg.sampling sampler `adapt` draws reference N1 features from."""
    feats = evaluate.feature_matrix(net, source_train)
    return sampling.make_sampler(cfg.sampling, feats,
                                 derive_rng(seed, "sampler", cfg.sampling))


def _pretrain(source_train, cfg, seed, checkpoint_path=None):
    """Phase 1 from a fresh model, saved to `checkpoint_path` if given;
    returns (net, loss_history)."""
    net = build_model(cfg.model, derive_int(seed, "init"))
    _, history = train_source(net, source_train, cfg, seed=seed,
                              checkpoint_path=checkpoint_path)
    return net, tuple(history)


def _lrsdag_step(net, bundle, cfg, seed):
    sampler = (source_sampler(net, bundle.source_train, cfg, seed)
               if losses.LOSSES[cfg.loss].needs_sampler else None)
    return adapt(net, bundle.target_train, sampler, cfg, seed=seed)


def _target_step(_, bundle, cfg, seed):
    # trains purely on the target subset; source data is never read
    net = build_model(cfg.model, derive_int(seed, "target-init"))
    return net, _train(net, bundle.target_train, cfg, seed, "target",
                       cfg.source_epochs)


def _finetune_step(net, bundle, cfg, seed):
    nn.set_frozen(net, ("n1",), True)
    return net, _train(net, bundle.target_train, cfg, seed, "finetune",
                       cfg.max_adapt_epochs, stop_threshold=cfg.stop_threshold)


def _lrsdag_row(cfg):
    loss = losses.LOSSES[cfg.loss]
    return loss.display, cfg.sampling if loss.needs_sampler else "-"


@dataclass(frozen=True)
class Method:
    """One method of the comparison table.

    `row(cfg)` gives its report cells (method, sampling).  `pretrained`
    says whether it starts from the trial's phase-1 model.
    `phase2(net, bundle, cfg, seed)` trains on from that model (None
    without `pretrained`) and returns (net, loss_history); a method
    without a phase-2 step reports the phase-1 model.
    """

    row: object
    pretrained: bool
    phase2: object


METHODS = {
    "lrsdag": Method(_lrsdag_row, True, _lrsdag_step),
    "source_trained": Method(lambda cfg: ("Source only", "-"), True, None),
    "target_trained": Method(lambda cfg: ("Target only", "-"), False,
                             _target_step),
    "finetune_n2": Method(lambda cfg: ("Finetune N2", "-"), True,
                          _finetune_step),
}

BASELINE_KINDS = tuple(name for name in METHODS if name != "lrsdag")


def _method(name):
    if name not in METHODS:
        raise ConfigError(f"unknown method {name!r}")
    return METHODS[name]


def _fit(bundle, cfg, method, seed, pretrained_path=None):
    """Train one method end to end; returns (net, loss_history).

    A method that starts from phase 1 loads `pretrained_path`, which must
    exist, or trains a phase-1 model when it is None; that model's loss
    history is the fit's unless a phase-2 step follows.
    """
    entry = _method(method)
    net, history = None, ()
    if entry.pretrained and pretrained_path is None:
        net, history = _pretrain(bundle.source_train, cfg, seed)
    elif entry.pretrained:
        net, _ = nn.load_checkpoint(pretrained_path)
    if entry.phase2 is not None:
        net, history = entry.phase2(net, bundle, cfg, seed)
    return net, tuple(history)


def _run(method, bundle, cfg, seed, pretrained_path):
    """Fit one method and evaluate it into a RunRecord."""
    seed = cfg.seed if seed is None else seed
    started = time.perf_counter()
    net, history = _fit(bundle, cfg, method, seed, pretrained_path)
    name, strategy = METHODS[method].row(cfg)
    report = evaluate.evaluate_pair(
        net, bundle.source_test, bundle.target_test,
        metadata={"config_hash": config_hash(cfg), "trial_seed": seed})
    return RunRecord(
        method=name,
        strategy=strategy,
        loss_history=history,
        report=report,
        seeds={"master": cfg.seed, "trial_seed": seed},
        config=cfg.snapshot(),
        wall_clock=time.perf_counter() - started,
    )


def run_lrsdag(bundle, cfg, seed=None, pretrained_path=None):
    """Pretrain (or load), adapt with cfg.loss/cfg.sampling, evaluate."""
    return _run("lrsdag", bundle, cfg, seed, pretrained_path)


def run_baseline(kind, bundle, cfg, seed=None, pretrained_path=None):
    """Run one of the three reference procedures and evaluate it."""
    if kind not in BASELINE_KINDS:
        raise ConfigError(f"unknown baseline {kind!r}")
    return _run(kind, bundle, cfg, seed, pretrained_path)


def average_records(records):
    """Pool trial records into one; accuracy cells come from summed
    confusion counts, so they equal the mean of per-trial accuracies."""
    first = records[0]
    conf, counts, acc = {}, {}, {}
    for key in first.report.accuracy:
        conf[key] = np.sum([r.report.confusion[key] for r in records], axis=0)
        counts[key] = int(sum(r.report.n_examples[key] for r in records))
        acc[key] = float(np.trace(conf[key]) / counts[key] * 100.0)
    metadata = {
        "config_hash": config_hash(ExperimentConfig(**first.config)),
        "trial_seeds": [r.seeds["trial_seed"] for r in records],
        "per_trial_accuracy": [dict(r.report.accuracy) for r in records],
    }
    report = evaluate.EvalReport(accuracy=acc, confusion=conf,
                                 n_examples=counts, metadata=metadata)
    return RunRecord(
        method=first.method,
        strategy=first.strategy,
        loss_history=(),
        report=report,
        seeds={"master": first.seeds["master"],
               "trial_seeds": metadata["trial_seeds"]},
        config=dict(first.config),
        wall_clock=sum(r.wall_clock for r in records),
    )


def run_trials(bundle, cfg, method="lrsdag", pretrained_paths=None):
    """Run cfg.trials independent trials; returns (averaged, per-trial)."""
    records = [_run(method, bundle, cfg, cfg.seed + trial,
                    pretrained_paths[trial] if pretrained_paths else None)
               for trial in range(cfg.trials)]
    return average_records(records), records


def grid_search(lrs, weight_decays, bundle, val, cfg, method="lrsdag",
                pretrained_path=None):
    """Pick (lr, weight_decay) by validation accuracy.

    Ties break toward the lower learning rate, then the lower decay.
    With `pretrained_path` every candidate starts from that phase-1
    checkpoint, which must exist; without it each candidate trains
    phase 1 under its own lr and decay.  A `pretrained_path` with a
    method that does not start from phase 1 (`target_trained`) raises
    ConfigError before any training.
    """
    if not lrs or not weight_decays:
        raise ConfigError("grid must contain at least one lr and one weight_decay")
    if pretrained_path is not None and not _method(method).pretrained:
        raise ConfigError(f"--checkpoint does not apply to method {method}, "
                          "which does not start from a phase-1 model")
    best_key, best_cfg = None, None
    for lr in lrs:
        for wd in weight_decays:
            cand = replace(cfg, lr=float(lr), weight_decay=float(wd))
            net, _ = _fit(bundle, cand, method, cand.seed, pretrained_path)
            score = evaluate.accuracy(net, val,
                                      use_encoder=net.encoder is not None)
            key = (-score, lr, wd)
            if best_key is None or key < best_key:
                best_key, best_cfg = key, cand
    return best_cfg


def method_inventory():
    """All report rows: baselines plus loss kinds crossed with samplers."""
    rows = [("baseline", kind, "-") for kind in BASELINE_KINDS]
    for kind, loss in losses.LOSSES.items():
        strategies = sampling.SAMPLER_KINDS if loss.needs_sampler else ("-",)
        rows.extend(("lrsdag", kind, strat) for strat in strategies)
    return rows


def _cell_path(run_dir, family, key, strategy, trial):
    return os.path.join(run_dir, "cells",
                        f"{family}.{key}.{strategy}.trial{trial}.json")


def _save_record(path, rec):
    payload = {
        "method": rec.method,
        "strategy": rec.strategy,
        "loss_history": list(rec.loss_history),
        "report": rec.report.to_dict(),
        "seeds": rec.seeds,
        "config": rec.config,
        "wall_clock": rec.wall_clock,
    }
    data.atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1))


def _load_record(path):
    """The record saved at `path`, or None when the file is truncated or
    holds no record."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return RunRecord(
            method=payload["method"],
            strategy=payload["strategy"],
            loss_history=tuple(payload["loss_history"]),
            report=evaluate.EvalReport.from_dict(payload["report"]),
            seeds=payload["seeds"],
            config=payload["config"],
            wall_clock=payload["wall_clock"],
        )
    except (ValueError, KeyError, TypeError):
        return None


def ensure_pretrained(bundle, cfg, run_dir, trial):
    """Train (once) and persist the phase-1 checkpoint for a trial.

    The checkpoint records the hash of the config it was trained under;
    an existing one from another config raises ConfigError.
    """
    path = os.path.join(run_dir, "checkpoints", f"pretrained-trial{trial}.npz")
    want = config_hash(cfg)
    if os.path.exists(path):
        got = nn.checkpoint_meta(path).get("config_hash")
        if got != want:
            raise ConfigError(
                f"{path} was trained under config {got}, this run is {want}; "
                "rerun into a fresh run dir")
        return path
    _, history = _pretrain(bundle.source_train, cfg, cfg.seed + trial, path)
    _write_loss_csv(os.path.join(run_dir, f"source-loss-trial{trial}.csv"),
                    history)
    return path


def _write_loss_csv(path, history):
    lines = ["epoch,loss"] + [f"{i},{v:.12g}" for i, v in enumerate(history)]
    data.atomic_write_text(path, "\n".join(lines) + "\n")


def reproduce(bundle, cfg, run_dir):
    """Run every method for cfg.trials trials and render the report.

    Completed cells are persisted as JSON under run_dir/cells and act as
    resume markers: re-running skips them, so an interrupted run picks
    up where it stopped.  A truncated or unreadable cell is computed
    again; a cell or phase-1 checkpoint left by a different config
    raises ConfigError naming the file.  Phase-1 checkpoints are shared
    by all methods within a trial.
    """
    os.makedirs(os.path.join(run_dir, "cells"), exist_ok=True)
    averaged = []
    for family, key, strategy in method_inventory():
        if family == "baseline":
            method, cell_cfg = key, cfg
        else:
            method = "lrsdag"
            cell_cfg = replace(cfg, loss=key,
                               sampling=strategy if strategy != "-"
                               else cfg.sampling)
        trial_records = []
        for trial in range(cfg.trials):
            cell = _cell_path(run_dir, family, key, strategy, trial)
            rec = _load_record(cell) if os.path.exists(cell) else None
            if rec is not None:
                if rec.config != cell_cfg.snapshot():
                    raise ConfigError(
                        f"{cell} was computed under another config; "
                        "rerun into a fresh run dir")
                trial_records.append(rec)
                continue
            seed = cfg.seed + trial
            pre = (ensure_pretrained(bundle, cfg, run_dir, trial)
                   if METHODS[method].pretrained else None)
            if family == "baseline":
                rec = run_baseline(key, bundle, cfg, seed=seed,
                                   pretrained_path=pre)
            else:
                rec = run_lrsdag(bundle, cell_cfg, seed=seed, pretrained_path=pre)
                _write_loss_csv(
                    os.path.join(run_dir,
                                 f"adapt-loss.{key}.{strategy}.trial{trial}.csv"),
                    rec.loss_history)
            _save_record(cell, rec)
            trial_records.append(rec)
        averaged.append(average_records(trial_records))
    evaluate.write_report(averaged, run_dir)
    return averaged
