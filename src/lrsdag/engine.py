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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import data, evaluate, losses, nn, sampling
from . import tensor_core as tc
from .config import MODELS, ConfigError, ExperimentConfig, config_hash, write_resolved
from .seeding import derive_int, derive_rng


class EngineError(Exception):
    pass


class NonFiniteLoss(EngineError):
    """Training diverged; `epoch` records where."""

    def __init__(self, message, epoch):
        super().__init__(message)
        self.epoch = epoch


@dataclass(frozen=True)
class DomainData:
    """The four dataset splits one experiment consumes."""

    source_train: data.Dataset
    source_test: data.Dataset
    target_train: data.Dataset
    target_test: data.Dataset


SPLITS = tuple(f.name for f in fields(DomainData))
TEST_SPLITS = ("source_test", "target_test")


@dataclass
class RunRecord:
    """Outcome of one trained-and-evaluated method; its fields are the
    keys of the saved record."""

    method: str
    strategy: str
    report: evaluate.EvalReport
    loss_history: tuple = ()
    seeds: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    wall_clock: float = 0.0


def build_model(model, seed):
    return MODELS[model](seed)


def checksum(net, blocks=("n1", "n2")):
    """SHA-256 over raw parameter bytes of the named blocks: the digest of
    `param_bytes`, fed one parameter at a time instead of joined."""
    h = hashlib.sha256()
    for p in net.all_params(blocks):
        h.update(p.value)
    return h.hexdigest()


def data_digest(bundle):
    """SHA-256 over the images and labels of the bundle's splits, in SPLITS
    order, each array's dtype and shape included: what `reproduce` keys
    its stored cells and checkpoints by, besides the config."""
    h = hashlib.sha256()
    for name in SPLITS:
        ds = getattr(bundle, name)
        for array in (ds.images, ds.labels):
            h.update(f"{array.dtype.str}{array.shape}".encode())
            h.update(np.ascontiguousarray(array))
    return h.hexdigest()


def stopping_check(history, threshold):
    """True once the last two epoch losses differ by less than threshold."""
    return len(history) >= 2 and abs(history[-1] - history[-2]) < threshold


def _training_inputs(net, ds):
    """What each training step feeds the network, and the pass taking it.

    With every n1 layer frozen, f(x) is a constant of the fit: steps read
    the Features of `ds` (N1 runs over it here once, unless it holds
    them already) and run only the encoder and n2.  Otherwise steps take
    the images and run the whole network.
    """
    if len(ds) == 0:
        raise EngineError(f"{ds.name} {ds.split} set is empty; nothing to train on")
    if all(layer.frozen for layer in net.n1):
        return evaluate.features(net, ds), net.head
    return ds, net.forward


def _train(net, ds, cfg, seed, tag, epochs, align=None, min_rows=1,
           stop_threshold=None):
    """The loop of both phases; returns the per-epoch mean loss.

    Each step takes the cross-entropy plus, given `align(split, n)`, the
    weighted alignment value and split gradient it returns; the encoder,
    when the network has one, runs in the forward and backward.  Batches
    under `min_rows` rows are skipped.  One pass over the blocks decides
    what trains: the optimizer gets the parameters of every layer not
    frozen, and the parameters of every frozen layer are copied; after
    the loop EngineError, naming the block, is raised if any bit of them
    differs (so even 0.0 -> -0.0 counts as a change).
    """
    frozen, trainable = [], []
    for name, layers in net.blocks().items():
        for layer in layers:
            if layer.frozen:
                frozen += [(name, p, p.value.copy()) for p in layer.params()]
            else:
                trainable += layer.params()
    use_encoder = net.encoder is not None
    shuffle_seed = derive_int(seed, "epochs", tag)
    inputs, run = _training_inputs(net, ds)
    opt = nn.Adam(trainable, lr=cfg.lr, weight_decay=cfg.weight_decay)
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
                net.backward(tc.cross_entropy_grad(logits, labels),
                             use_encoder=use_encoder, split_grad=split_grad,
                             input_grad=False)
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


def train_source(net, source_train, cfg, seed=None, checkpoint_path=None,
                 digest=None):
    """Phase 1: train the encoder-less classifier on the source domain.

    The checkpoint, if asked for, records the phase, the seed, the hash
    of `cfg` and, when given, the `data_digest` of the bundle.
    """
    if net.encoder is not None:
        raise nn.EncoderAlreadyPresent("phase-1 training expects no encoder")
    seed = cfg.seed if seed is None else seed
    history = _train(net, source_train, cfg, seed, "source", cfg.source_epochs)
    if checkpoint_path is not None:
        meta = {"phase": "source", "seed": seed, "config_hash": config_hash(cfg)}
        if digest is not None:
            meta["data_digest"] = digest
        nn.save_checkpoint(net, checkpoint_path, meta=meta)
    return net, history


def adapt(net, target_train, sampler, cfg, seed=None):
    """Phase 2: insert the encoder and align target features to source.

    The objective is cfg.loss with weight cfg.align_weight; a loss that
    needs reference features without a `sampler` raises EngineError
    before the network is touched.  N1 and N2 are frozen; only encoder
    parameters step, and `_train` raises EngineError if any bit of N1 or
    N2 differs afterwards.  `target_train` is the target set or its
    Features; from the set, f(T) is computed once, before the first
    epoch.  Each step runs the
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


def _pretrain(source_train, cfg, seed, checkpoint_path=None, digest=None):
    """Phase 1 from a fresh model, saved to `checkpoint_path` if given;
    returns (net, loss_history)."""
    net = build_model(cfg.model, derive_int(seed, "init"))
    _, history = train_source(net, source_train, cfg, seed=seed,
                              checkpoint_path=checkpoint_path, digest=digest)
    return net, tuple(history)


class Trial:
    """One trial's phase-1 model as plain arrays, and f(x) = N1(x) over the
    splits its pretrained cells read.

    N1 is frozen after phase 1, so f(x) is a constant of the trial: N1
    runs once over each split named in `splits`, in `feature_matrix`
    batches, when the Trial is made, and never again.  `features` is a
    DomainData of `evaluate.Features`, None for a split not named; every
    pretrained method trains and is scored on it.  No Network is kept, so
    no gradient buffer or layer cache outlives the feature pass, and
    `network()` rebuilds the phase-1 model for one cell, its frozen N1 the
    Trial's own arrays (`_train` checks that no fit changes them).
    `history` is the phase-1 loss history when phase 1 ran here, () for a
    loaded checkpoint.  `lanes` is how many cells may run at once: one
    for a network whose convs deal their images over the lanes.
    """

    def __init__(self, net, bundle, splits, history=()):
        nn.set_frozen(net, ("n1",), True)
        self.features = DomainData(**{
            name: evaluate.features(net, getattr(bundle, name)) if name in splits
            else None for name in SPLITS})
        self.state = nn.network_state(net)
        self.history = tuple(history)
        self.lanes = 1 if net.holds_conv() else nn.LANES

    @classmethod
    def start(cls, bundle, cfg, seed, pretrained_path=None, splits=SPLITS):
        """The Trial of the checkpoint at `pretrained_path`, which must
        exist and hold no encoder, or of a phase-1 model trained here when
        it is None."""
        if pretrained_path is not None:
            net, _ = nn.load_checkpoint(pretrained_path)
            if net.encoder is not None:
                raise nn.EncoderAlreadyPresent(
                    f"{pretrained_path} holds an encoder; a phase-1 model has none")
            return cls(net, bundle, splits)
        net, history = _pretrain(bundle.source_train, cfg, seed)
        return cls(net, bundle, splits, history)

    def network(self):
        return nn.rebuild(*self.state, share=("n1",))


def _lrsdag_step(net, bundle, cfg, seed):
    # a loss that aligns to the source draws its reference rows from f(S)
    sampler = None
    if losses.LOSSES[cfg.loss].needs_sampler:
        feats = bundle.source_train.images
        sampler = sampling.make_sampler(cfg.sampling, feats.reshape(len(feats), -1),
                                        derive_rng(seed, "sampler", cfg.sampling))
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


def _lrsdag_reads(cfg):
    if losses.LOSSES[cfg.loss].needs_sampler:
        return ("source_train", "target_train")
    return ("target_train",)


@dataclass(frozen=True)
class Method:
    """One method of the comparison table.

    `row(cfg)` gives its report cells (method, sampling).  `pretrained`
    says whether it starts from the trial's phase-1 model.
    `phase2(net, bundle, cfg, seed)` trains on from that model (None
    without `pretrained`) and returns (net, loss_history); a method
    without a phase-2 step reports the phase-1 model.  A pretrained
    method's `bundle` holds the trial's Features; `reads(cfg)` names the
    training splits among them that `phase2` reads (the test splits are
    read by every pretrained method, to score it).
    """

    row: object
    pretrained: bool
    phase2: object
    reads: object = lambda cfg: ()


METHODS = {
    "lrsdag": Method(_lrsdag_row, True, _lrsdag_step, _lrsdag_reads),
    "source_trained": Method(lambda cfg: ("Source only", "-"), True, None),
    "target_trained": Method(lambda cfg: ("Target only", "-"), False,
                             _target_step),
    "finetune_n2": Method(lambda cfg: ("Finetune N2", "-"), True,
                          _finetune_step, lambda cfg: ("target_train",)),
}

BASELINE_KINDS = tuple(name for name in METHODS if name != "lrsdag")


def _method(name):
    if name not in METHODS:
        raise ConfigError(f"unknown method {name!r}")
    return METHODS[name]


def _fit(bundle, cfg, method, seed, trial=None):
    """Train one method end to end; returns (net, loss_history).

    A method that starts from phase 1 starts from `trial.network()` and
    reads the trial's Features in place of `bundle`; the trial's phase-1
    history is the fit's unless a phase-2 step follows.
    """
    entry = _method(method)
    net, history = None, ()
    if entry.pretrained:
        net, history, bundle = trial.network(), trial.history, trial.features
    if entry.phase2 is not None:
        net, history = entry.phase2(net, bundle, cfg, seed)
    return net, tuple(history)


def _run(method, bundle, cfg, seed, pretrained_path, trial=None):
    """Fit one method and evaluate it into a RunRecord.

    Without `trial`, a method that starts from phase 1 makes one from
    `pretrained_path` (see `Trial.start`) over just the splits it reads.
    """
    seed = cfg.seed if seed is None else seed
    started = time.perf_counter()
    entry = _method(method)
    if entry.pretrained and trial is None:
        trial = Trial.start(bundle, cfg, seed, pretrained_path,
                            entry.reads(cfg) + TEST_SPLITS)
    net, history = _fit(bundle, cfg, method, seed, trial)
    scored = trial.features if entry.pretrained else bundle
    name, strategy = entry.row(cfg)
    report = evaluate.evaluate_pair(
        net, scored.source_test, scored.target_test,
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


def run_lrsdag(bundle, cfg, seed=None, pretrained_path=None, trial=None):
    """Pretrain (or load, or take from `trial`), adapt with
    cfg.loss/cfg.sampling, evaluate."""
    return _run("lrsdag", bundle, cfg, seed, pretrained_path, trial)


def run_baseline(kind, bundle, cfg, seed=None, pretrained_path=None, trial=None):
    """Run one of the three reference procedures and evaluate it."""
    if kind not in BASELINE_KINDS:
        raise ConfigError(f"unknown baseline {kind!r}")
    return _run(kind, bundle, cfg, seed, pretrained_path, trial)


def average_records(records):
    """Pool trial records into the first's row; its report is the summed
    confusion counts, so each accuracy cell is the mean of the trials'."""
    first = records[0]
    conf = {key: np.sum([r.report.confusion[key] for r in records], axis=0)
            for key in first.report.confusion}
    metadata = {
        "config_hash": config_hash(ExperimentConfig(**first.config)),
        "trial_seeds": [r.seeds["trial_seed"] for r in records],
        "per_trial_accuracy": [r.report.accuracy for r in records],
    }
    return replace(first, loss_history=(),
                   report=evaluate.EvalReport(confusion=conf, metadata=metadata),
                   seeds={"master": first.seeds["master"],
                          "trial_seeds": metadata["trial_seeds"]},
                   wall_clock=sum(r.wall_clock for r in records))


def run_trials(bundle, cfg, method="lrsdag"):
    """Run cfg.trials independent trials; returns (averaged, per-trial)."""
    records = [_run(method, bundle, cfg, cfg.seed + trial, None)
               for trial in range(cfg.trials)]
    return average_records(records), records


def grid_search(lrs, weight_decays, bundle, val, cfg, method="lrsdag",
                pretrained_path=None):
    """Pick (lr, weight_decay) by validation accuracy.

    Ties break toward the lower learning rate, then the lower decay.
    With `pretrained_path` every candidate starts from that phase-1
    checkpoint, which must exist: one Trial, loaded and run through N1
    once, serves them all, and the validation set's N1 features are
    computed once with it and score every candidate.  Without it each
    candidate trains phase 1 under its own lr and decay, and is scored
    through that phase 1's N1.  A `pretrained_path` with a method that
    does not start from phase 1 (`target_trained`) raises ConfigError
    before any training.
    """
    if not lrs or not weight_decays:
        raise ConfigError("grid must contain at least one lr and one weight_decay")
    entry = _method(method)
    if pretrained_path is not None and not entry.pretrained:
        raise ConfigError(f"--checkpoint does not apply to method {method}, "
                          "which does not start from a phase-1 model")
    best_key, best_cfg, trial, scored = None, None, None, val
    for lr in lrs:
        for wd in weight_decays:
            cand = replace(cfg, lr=float(lr), weight_decay=float(wd))
            if entry.pretrained and (trial is None or pretrained_path is None):
                trial = Trial.start(bundle, cand, cand.seed, pretrained_path,
                                    entry.reads(cand))
                # N1 stays frozen after phase 1, so f(val) is the trial's
                scored = evaluate.features(trial.network(), val)
            net, _ = _fit(bundle, cand, method, cand.seed, trial)
            score = evaluate.accuracy(net, scored,
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


def _save_record(path, rec):
    payload = {f.name: getattr(rec, f.name) for f in fields(RunRecord)}
    payload.update(loss_history=list(rec.loss_history),
                   report=rec.report.to_dict())
    data.atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1))


def _load_record(path):
    """The record saved at `path`, or None when the file is truncated or
    holds no record."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        rec = RunRecord(**{f.name: payload[f.name] for f in fields(RunRecord)})
        return replace(rec, loss_history=tuple(rec.loss_history),
                       report=evaluate.EvalReport.from_dict(rec.report))
    except (ValueError, KeyError, TypeError):
        return None


def _check_data(path, stored, digest):
    """A stored cell or checkpoint made from other data than this run's
    raises DataError naming the file."""
    if stored != digest:
        raise data.DataError(f"{path} was computed from other data; "
                             "rerun into a fresh run dir")


def _pretrained_path(cfg, digest, run_dir, trial):
    """Where a trial's phase-1 checkpoint goes.  It records the hash of
    the config and the digest of the data it was trained on; one already
    there from another config raises ConfigError, from other data
    DataError."""
    path = os.path.join(run_dir, "checkpoints", f"pretrained-trial{trial}.npz")
    if not os.path.exists(path):
        return path
    meta, want = nn.checkpoint_meta(path), config_hash(cfg)
    if meta.get("config_hash") != want:
        raise ConfigError(f"{path} was trained under config "
                          f"{meta.get('config_hash')}, this run is {want}; "
                          "rerun into a fresh run dir")
    _check_data(path, meta.get("data_digest"), digest)
    return path


def ensure_pretrained(bundle, cfg, run_dir, trial, digest=None):
    """Train (once) and persist the phase-1 checkpoint for a trial; one
    already there must be from `cfg` and from the bundle, whose
    `data_digest` is `digest` (computed here when None; see
    `_pretrained_path`)."""
    digest = data_digest(bundle) if digest is None else digest
    path = _pretrained_path(cfg, digest, run_dir, trial)
    if os.path.exists(path):
        return path
    _, history = _pretrain(bundle.source_train, cfg, cfg.seed + trial, path, digest)
    _write_loss_csv(os.path.join(run_dir, f"source-loss-trial{trial}.csv"),
                    history)
    return path


def _write_loss_csv(path, history):
    lines = ["epoch,loss"] + [f"{i},{v:.12g}" for i, v in enumerate(history)]
    data.atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class _Cell:
    """One row of the report and the config its cells run under."""

    family: str
    key: str
    strategy: str
    cfg: ExperimentConfig

    @property
    def method(self):
        return self.key if self.family == "baseline" else "lrsdag"

    def path(self, run_dir, trial):
        return os.path.join(run_dir, "cells", f"{self.family}.{self.key}."
                            f"{self.strategy}.trial{trial}.json")


def _cells(cfg):
    return [_Cell(family, key, strategy, cfg if family == "baseline" else replace(
                cfg, loss=key, sampling=strategy if strategy != "-" else cfg.sampling))
            for family, key, strategy in method_inventory()]


def _compute_cell(cell, bundle, cfg, run_dir, trial, cache, digest):
    seed = cfg.seed + trial
    if cell.family == "baseline":
        rec = run_baseline(cell.key, bundle, cfg, seed=seed, trial=cache)
    else:
        rec = run_lrsdag(bundle, cell.cfg, seed=seed, trial=cache)
        _write_loss_csv(
            os.path.join(run_dir,
                         f"adapt-loss.{cell.key}.{cell.strategy}.trial{trial}.csv"),
            rec.loss_history)
    rec.report.metadata["data_digest"] = digest
    _save_record(cell.path(run_dir, trial), rec)
    return rec


def _reproduce_trial(bundle, cfg, run_dir, trial, todo, digest):
    """Compute the given cells of one trial; returns {cell: record}.

    The trial's phase-1 checkpoint is trained first, if missing.  The
    cells that do not start from phase 1 run next, before the trial's
    cache exists; then one Trial, over the splits the remaining cells
    read, serves them all, dealt over its `lanes` (`nn.deal`) with
    OpenBLAS at one thread, which would spin against them.  A cell reads
    only the Trial and its own seeds and writes only its own files, so no
    bit depends on the lane that runs it.  The Trial is freed when this
    returns, and what the lanes freed is handed back to the system.
    """
    pretrained = [c for c in todo if METHODS[c.method].pretrained]
    path = ensure_pretrained(bundle, cfg, run_dir, trial, digest) if pretrained else None
    out = {c: _compute_cell(c, bundle, cfg, run_dir, trial, None, digest)
           for c in todo if c not in pretrained}
    if pretrained:
        splits = set(TEST_SPLITS).union(
            *(METHODS[c.method].reads(c.cfg) for c in pretrained))
        cache = Trial.start(bundle, cfg, cfg.seed + trial, path, splits)
        with nn.one_blas_thread(cache.lanes > 1):
            out.update(zip(pretrained, nn.deal(pretrained, lambda c, _: _compute_cell(
                c, bundle, cfg, run_dir, trial, cache, digest), cache.lanes)))
        nn.trim_heap()
    return out


def _check_bypass(cells, stored, run_dir, trial):
    """With the encoder bypassed every LRS-DAG cell scores the phase-1 model,
    so its bypassed counts must equal Source only's; EngineError names both."""
    base = next(c for c in cells if c.key == "source_trained")
    for cell in (c for c in cells if c.family == "lrsdag"):
        if not all(np.array_equal(stored[cell].report.confusion[k],
                                  stored[base].report.confusion[k])
                   for k in ("source_without", "target_without")):
            raise EngineError(f"{cell.path(run_dir, trial)} and {base.path(run_dir, trial)} "
                              "differ with the encoder bypassed")


def reproduce(bundle, cfg, run_dir):
    """Run every method for cfg.trials trials and render the report.

    Completed cells are persisted as JSON under run_dir/cells and act as
    resume markers: re-running skips them, so an interrupted run picks
    up where it stopped.  Every stored cell and phase-1 checkpoint is
    read, in trial and then inventory order, before anything is written:
    a truncated or unreadable cell is computed again, a cell or
    checkpoint left by a different config raises ConfigError naming the
    file, and one made from other data (its `data_digest`, stored next
    to the config hash, differs from the bundle's) raises DataError.
    The missing cells are then computed trial by trial (see
    `_reproduce_trial`): one phase-1 checkpoint and one Trial, N1 run
    once over each split, serve all of a trial's pretrained cells, and
    one trial's cache is alive at a time.  A trial whose cells break the
    paper's guarantee (`_check_bypass`) stops the run before any report.
    """
    cells = _cells(cfg)
    digest = data_digest(bundle)
    records = [{} for _ in range(cfg.trials)]
    for trial, stored in enumerate(records):
        for cell in cells:
            path = cell.path(run_dir, trial)
            rec = _load_record(path) if os.path.exists(path) else None
            if rec is None:
                continue
            if rec.config != cell.cfg.snapshot():
                raise ConfigError(f"{path} was computed under another config; "
                                  "rerun into a fresh run dir")
            _check_data(path, rec.report.metadata.get("data_digest"), digest)
            stored[cell] = rec
        _pretrained_path(cfg, digest, run_dir, trial)
    os.makedirs(os.path.join(run_dir, "cells"), exist_ok=True)
    write_resolved(cfg, run_dir)
    for trial, stored in enumerate(records):
        todo = [c for c in cells if c not in stored]
        if todo:
            stored.update(_reproduce_trial(bundle, cfg, run_dir, trial, todo, digest))
        _check_bypass(cells, stored, run_dir, trial)
    averaged = [average_records([stored[c] for stored in records]) for c in cells]
    evaluate.write_report(averaged, run_dir)
    return averaged
