import dataclasses
import hashlib
import json
import os
import re
import threading
import time

import numpy as np
import pytest

from lrsdag import data, engine, evaluate, losses, nn, sampling
from lrsdag import tensor_core as tc
from lrsdag.seeding import derive_int, derive_rng

TEMPLATES = np.random.default_rng(99).random((10, 1024))

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data")


def blob_dataset(n, seed, shift=0.0, spread=0.05, split="train"):
    """Linearly separable class blobs at the 1 x 32 x 32 input shape."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % 10
    images = TEMPLATES[labels] + shift + spread * rng.standard_normal((n, 1024))
    return data.Dataset(images=images.reshape(n, 1, 32, 32), labels=labels,
                        name="blobs", split=split)


def blob_bundle(shift=0.6, n_train=120, n_test=60):
    return engine.DomainData(
        source_train=blob_dataset(n_train, seed=1),
        source_test=blob_dataset(n_test, seed=2, split="test"),
        target_train=blob_dataset(n_train, seed=3, shift=shift),
        target_test=blob_dataset(n_test, seed=4, shift=shift, split="test"),
    )


def quick_cfg(**overrides):
    base = dict(lr=1e-3, batch_size=32, source_epochs=8, max_adapt_epochs=4,
                stop_threshold=1e-6, trials=1, seed=0)
    base.update(overrides)
    return engine.ExperimentConfig(**base)


class TestConfig:
    def test_defaults_valid(self):
        cfg = engine.ExperimentConfig()
        assert cfg.source_epochs == 100 and cfg.trials == 3

    @pytest.mark.parametrize("bad", [
        dict(model="rnn"), dict(loss="mmd"), dict(sampling="grid"),
        dict(batch_size=0), dict(stop_threshold=0.0), dict(trials=0),
        dict(lr=-1.0), dict(align_weight=-1.0), dict(max_adapt_epochs=0),
        dict(lr=float("nan")), dict(lr=float("inf")),
        dict(weight_decay=float("nan")), dict(weight_decay=float("inf")),
        dict(align_weight=float("nan")), dict(align_weight=float("inf")),
        dict(encoder_noise=float("nan")), dict(encoder_noise=float("inf")),
        dict(stop_threshold=float("nan")), dict(stop_threshold=float("inf")),
    ])
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(engine.ConfigError):
            engine.ExperimentConfig(**bad)


class TestStoppingCheck:
    def test_equal_losses_stop(self):
        assert engine.stopping_check([1.0, 1.0], 1e-9)

    def test_large_delta_continues(self):
        assert not engine.stopping_check([1.0, 0.5], 0.1)

    def test_single_entry_continues(self):
        assert not engine.stopping_check([1.0], 0.1)


class TestTrainSource:
    def test_zero_epochs_is_identity(self):
        net = engine.build_model("fcn", seed=5)
        before = engine.checksum(net)
        _, history = engine.train_source(net, blob_dataset(40, seed=6),
                                         quick_cfg(source_epochs=0), seed=0)
        assert history == []
        assert engine.checksum(net) == before

    def test_reaches_full_train_accuracy_on_separable_data(self):
        ds = blob_dataset(100, seed=7)
        net = engine.build_model("fcn", seed=8)
        _, history = engine.train_source(net, ds, quick_cfg(source_epochs=12), seed=0)
        assert evaluate.accuracy(net, ds) == 100.0
        assert history[-1] <= history[0]

    def test_rejects_encoder(self):
        net = engine.build_model("fcn", seed=9)
        nn.build_encoder(net, seed=9)
        with pytest.raises(nn.EncoderAlreadyPresent):
            engine.train_source(net, blob_dataset(20, seed=0), quick_cfg(), seed=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_epoch(self):
        net = engine.build_model("fcn", seed=10)
        with pytest.raises(engine.NonFiniteLoss) as err:
            engine.train_source(net, blob_dataset(40, seed=1),
                                quick_cfg(lr=1e200, source_epochs=2), seed=0)
        assert isinstance(err.value.epoch, int)

    def test_checkpoint_persisted(self, tmp_path):
        net = engine.build_model("fcn", seed=11)
        path = tmp_path / "source.npz"
        cfg = quick_cfg(source_epochs=1)
        engine.train_source(net, blob_dataset(30, seed=2), cfg, seed=3,
                            checkpoint_path=path)
        loaded, meta = nn.load_checkpoint(path)
        assert meta == {"phase": "source", "seed": 3,
                        "config_hash": engine.config_hash(cfg)}
        assert engine.checksum(loaded) == engine.checksum(net)


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "pretrained.npz"
    bundle = blob_bundle()
    net = engine.build_model("fcn", seed=12)
    engine.train_source(net, bundle.source_train, quick_cfg(source_epochs=10),
                        seed=0, checkpoint_path=path)
    return str(path), bundle


class TestAdapt:
    def test_frozen_blocks_unchanged(self, pretrained):
        path, bundle = pretrained
        for kind in ("cls", "cls_mse", "cls_kl", "cls_norm", "cls_kl_rev", "coral"):
            net, _ = nn.load_checkpoint(path)
            before = engine.checksum(net)
            sampler = None
            if losses.LOSSES[kind].needs_sampler:
                feats = evaluate.feature_matrix(net, bundle.source_train)
                sampler = sampling.make_sampler("indirect", feats, derive_rng(0, kind))
            engine.adapt(net, bundle.target_train, sampler,
                         quick_cfg(loss=kind, max_adapt_epochs=2), seed=0)
            assert engine.checksum(net) == before, kind

    def test_zero_lr_leaves_encoder_at_init(self, pretrained):
        path, bundle = pretrained
        net, _ = nn.load_checkpoint(path)
        feats = evaluate.feature_matrix(net, bundle.source_train)
        sampler = sampling.make_sampler("indirect", feats, derive_rng(1, "s"))
        engine.adapt(net, bundle.target_train, sampler,
                     quick_cfg(loss="cls_mse", lr=0.0, max_adapt_epochs=2), seed=77)
        reference, _ = nn.load_checkpoint(path)
        nn.build_encoder(reference, 77, noise_scale=quick_cfg().encoder_noise)
        for got, want in zip(net.all_params(("encoder",)),
                             reference.all_params(("encoder",))):
            np.testing.assert_array_equal(got.value, want.value)

    def test_self_adaptation_starts_near_source_loss(self, pretrained):
        path, bundle = pretrained
        net, _ = nn.load_checkpoint(path)
        fresh = engine.build_model("fcn", seed=12)
        _, src_history = engine.train_source(fresh, bundle.source_train,
                                             quick_cfg(source_epochs=10), seed=0)
        _, history = engine.adapt(net, bundle.source_train, None,
                                  quick_cfg(loss="cls", max_adapt_epochs=1), seed=0)
        assert history[0] < src_history[-1] + 0.05

    def test_self_adaptation_keeps_source_accuracy(self, pretrained):
        path, bundle = pretrained
        net, _ = nn.load_checkpoint(path)
        reference, _ = nn.load_checkpoint(path)
        nn.build_encoder(reference, 0, noise_scale=quick_cfg().encoder_noise)
        start = evaluate.accuracy(reference, bundle.source_train, use_encoder=True)
        engine.adapt(net, bundle.source_train, None,
                     quick_cfg(loss="cls", max_adapt_epochs=3), seed=0)
        end = evaluate.accuracy(net, bundle.source_train, use_encoder=True)
        assert end >= start - 1.0

    def test_small_batches_skipped_for_stats_losses(self, pretrained):
        path, bundle = pretrained
        net, _ = nn.load_checkpoint(path)
        tiny = bundle.target_train.select(np.arange(5))
        feats = evaluate.feature_matrix(net, bundle.source_train)
        sampler = sampling.make_sampler("random", feats, derive_rng(2, "r"))
        _, history = engine.adapt(net, tiny, sampler,
                                  quick_cfg(loss="coral", batch_size=2,
                                            max_adapt_epochs=1),
                                  seed=0)
        assert np.isfinite(history).all()

    @pytest.mark.parametrize("kind,aligned", [("cls", 0), ("cls_kl", 1)])
    def test_cls_computes_no_alignment(self, pretrained, monkeypatch, kind, aligned):
        """Plain cls draws no reference rows and makes no alignment call,
        even with a sampler at hand; cls_kl shows that the counts count."""
        path, bundle = pretrained
        net, _ = nn.load_checkpoint(path)
        feats = evaluate.feature_matrix(net, bundle.source_train)
        sampler = sampling.make_sampler("indirect", feats, derive_rng(5, "s"))
        calls = []
        for owner, name in ((losses, "alignment"), (sampler, "draw")):
            orig = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _orig=orig, _name=name:
                                calls.append(_name) or _orig(*a))
        cfg = quick_cfg(loss=kind, max_adapt_epochs=2)
        _, history = engine.adapt(net, bundle.target_train, sampler, cfg, seed=0)
        steps = len(history) * int(np.ceil(len(bundle.target_train) / cfg.batch_size))
        assert steps and calls == ["draw", "alignment"] * steps * aligned

    def test_needs_sampler_enforced(self, pretrained):
        path, _ = pretrained
        net, _ = nn.load_checkpoint(path)
        with pytest.raises(engine.EngineError, match="needs a feature sampler"):
            engine.adapt(net, blob_dataset(10, seed=3), None,
                         quick_cfg(loss="cls_kl"), seed=0)
        # the rejected call leaves the caller's network as it was
        assert net.encoder is None
        assert not any(layer.frozen for layer in net.n1 + net.n2)


class TestChecksum:
    @pytest.mark.parametrize("build", [nn.build_fcn, nn.build_cnn], ids=["fcn", "cnn"])
    def test_equals_the_digest_of_param_bytes(self, build):
        """Fed one parameter at a time, the digest is that of the joined
        bytes, on a network with an encoder too."""
        plain, with_encoder = build(seed=5), build(seed=6)
        nn.build_encoder(with_encoder, seed=7)
        for net in (plain, with_encoder):
            for blocks in (("n1", "n2"), ("n1",), ("encoder",), nn.BLOCK_NAMES):
                assert (engine.checksum(net, blocks)
                        == hashlib.sha256(net.param_bytes(blocks)).hexdigest()), blocks
        assert engine.checksum(plain) != engine.checksum(with_encoder)


class TestGradientBuffers:
    @pytest.mark.parametrize("model", ["fcn", "cnn"])
    def test_adaptation_makes_no_frozen_buffer(self, model):
        """A gradient buffer is made at its first use, so after an
        adaptation fit no N1 or N2 parameter holds one."""
        bundle = blob_bundle(n_train=20, n_test=10)
        net = engine.build_model(model, seed=3)
        engine.adapt(net, bundle.target_train, None,
                     quick_cfg(model=model, loss="cls", max_adapt_epochs=1), seed=0)
        assert all(p._grad is None for p in net.all_params(("n1", "n2")))
        assert all(p._grad is not None for p in net.all_params(("encoder",)))


class TestForwardCaches:
    """No layer cache outlives a pass that no backward follows, and frozen
    layers keep no columns or inputs for a weight gradient they skip."""

    def test_trial_keeps_no_layer_cache(self, held_caches):
        bundle = blob_bundle(n_train=20, n_test=10)
        net = engine.build_model("cnn", seed=3)
        net.forward_features(bundle.source_train.images[:4])
        assert held_caches(net)
        engine.Trial(net, bundle, engine.SPLITS)
        assert held_caches(net) == []

    def test_adapt_step_caches_only_what_backward_reads(self, held_caches):
        net = engine.build_model("cnn", seed=4)
        engine.adapt(net, blob_dataset(8, seed=5), None,
                     quick_cfg(loss="cls", batch_size=8, max_adapt_epochs=1),
                     seed=0)
        # the encoder's convs keep their columns for the weight gradient;
        # the frozen N2 layers keep only ReLU masks for the input gradient;
        # N1 ran once, outside the steps, over the whole set
        assert held_caches(net) == [
            "n2.1._mask", "n2.3._mask", "n2.5._mask",
            "encoder.0._cols", "encoder.1._mask", "encoder.2._cols", "encoder.3._mask"]


def reference_adapt(net, ds, sampler, cfg, seed):
    """Phase 2 as a plain per-batch loop: the whole network, N1 included,
    runs forward on the images of every batch in every epoch."""
    needs_sampler = losses.LOSSES[cfg.loss].needs_sampler
    nn.build_encoder(net, seed, noise_scale=cfg.encoder_noise)
    nn.freeze(net, ("n1", "n2"))
    opt = nn.Adam(net.all_params(("encoder",)), lr=cfg.lr,
                  weight_decay=cfg.weight_decay)
    shuffle_seed = derive_int(seed, "epochs", "adapt")
    history = []
    for epoch in range(cfg.max_adapt_epochs):
        total, count = 0.0, 0
        for images, labels in data.batches(ds, cfg.batch_size, shuffle=True,
                                           seed=shuffle_seed, epoch=epoch):
            if len(labels) < 2 and cfg.loss in ("cls_norm", "coral"):
                continue
            split, logits = net.forward(images, use_encoder=True)
            flat = split.reshape(len(labels), -1)
            if needs_sampler:
                align_value, align_grad = losses.alignment(
                    cfg.loss, sampler.draw(len(labels)), flat)
            else:  # plain cls aligns nothing: an explicit zero gradient
                align_value, align_grad = 0.0, np.zeros_like(flat)
            value = cfg.align_weight * align_value + tc.cross_entropy(logits, labels)
            net.backward(tc.cross_entropy_grad(logits, labels), use_encoder=True,
                         split_grad=(cfg.align_weight * align_grad).reshape(split.shape))
            opt.step()
            total += value * len(labels)
            count += len(labels)
        history.append(total / count)
        if engine.stopping_check(history, cfg.stop_threshold):
            break
    return tuple(history)


def _adapt_both_ways(model, kind, batch_size, n, align_weight=1.0):
    """(encoder bytes, loss history) from engine.adapt and from the
    per-batch reference, on the same data, init, sampler and seed."""
    ds = blob_dataset(n, seed=5, shift=0.4)
    source = blob_dataset(40, seed=6)
    cfg = quick_cfg(model=model, batch_size=batch_size, max_adapt_epochs=3,
                    stop_threshold=1e-300, loss=kind, align_weight=align_weight)
    results = []
    for fit in (engine.adapt, reference_adapt):
        net = engine.build_model(model, seed=13)
        feats = evaluate.feature_matrix(net, source)
        sampler = sampling.make_sampler("indirect", feats, derive_rng(3, kind))
        out = fit(net, ds, sampler, cfg, seed=4)
        history = tuple(out[1]) if fit is engine.adapt else out
        assert len(history) == 3
        results.append((net.param_bytes(("encoder",)), history))
    return results


class TestAdaptMatchesPerBatchReference:
    """N1 features computed once must train the encoder as the per-batch
    forward pass does, bit for bit."""

    @pytest.mark.parametrize("model", ["fcn", "cnn"])
    @pytest.mark.parametrize("kind,align_weight",
                             [("cls_kl", 1.0), ("cls_norm", 1.0), ("cls", 1.0),
                              ("coral", 0.0)],
                             ids=["cls_kl", "cls_norm", "cls", "coral-w0"])
    @pytest.mark.parametrize("batch_size", [8, 16])
    def test_bit_identical(self, model, kind, align_weight, batch_size):
        # 37 examples: short last batches of 5 rows
        got, want = _adapt_both_ways(model, kind, batch_size, 37, align_weight)
        assert got == want

    @pytest.mark.parametrize("kind", ["cls_kl", "cls_norm"])
    def test_cnn_single_row_last_batch(self, kind):
        # batches of 10, 10, 10, 1; cls_norm skips the last one.  Conv
        # products run per example, so batch size never changes rounding.
        got, want = _adapt_both_ways("cnn", kind, 10, 31)
        assert got == want

    def test_fcn_single_row_last_batch(self):
        # OpenBLAS computes a product of 1 to 4 rows with another kernel
        # than the same rows inside a larger product, so f(T) rows of such
        # a batch differ from the cached ones in the last bits; the
        # trajectories agree to rounding.
        got, want = _adapt_both_ways("fcn", "cls_kl", 10, 31)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-9)
        np.testing.assert_allclose(np.frombuffer(got[0]), np.frombuffer(want[0]),
                                   rtol=1e-9, atol=1e-12)


class TestBaselines:
    def test_source_trained_record_shape(self, pretrained):
        path, bundle = pretrained
        rec = engine.run_baseline("source_trained", bundle, quick_cfg(), seed=0,
                                  pretrained_path=path)
        assert rec.method == "Source only" and rec.strategy == "-"
        assert set(rec.report.accuracy) == set(evaluate.CELLS)
        assert rec.report.accuracy["source_with"] == \
            rec.report.accuracy["source_without"]

    def test_finetune_touches_n2_not_n1(self, pretrained):
        path, bundle = pretrained
        net, _ = nn.load_checkpoint(path)
        n1_before = engine.checksum(net, blocks=("n1",))
        n2_before = engine.checksum(net, blocks=("n2",))
        engine.run_baseline("finetune_n2", bundle, quick_cfg(max_adapt_epochs=2),
                            seed=0, pretrained_path=path)
        # re-run the underlying fit to inspect the trained network
        cfg = quick_cfg(max_adapt_epochs=2)
        fitted, _ = engine._fit(bundle, cfg, "finetune_n2", 0,
                                engine.Trial.start(bundle, cfg, 0, path, engine.SPLITS))
        assert engine.checksum(fitted, blocks=("n1",)) == n1_before
        assert engine.checksum(fitted, blocks=("n2",)) != n2_before

    def test_target_trained_never_reads_source_train(self):
        bundle = blob_bundle()
        bundle = engine.DomainData(source_train=None,
                                   source_test=bundle.source_test,
                                   target_train=bundle.target_train,
                                   target_test=bundle.target_test)
        rec = engine.run_baseline("target_trained", bundle,
                                  quick_cfg(source_epochs=3), seed=0)
        assert rec.method == "Target only"

    def test_unknown_kind(self):
        with pytest.raises(engine.ConfigError):
            engine.run_baseline("oracle", blob_bundle(), quick_cfg(), seed=0)

    def test_empty_target_set_is_engine_error(self, pretrained):
        path, bundle = pretrained
        empty = engine.DomainData(
            source_train=bundle.source_train, source_test=bundle.source_test,
            target_train=bundle.target_train.select(np.arange(0)),
            target_test=bundle.target_test)
        with pytest.raises(engine.EngineError, match="blobs train set is empty"):
            engine.run_baseline("finetune_n2", empty, quick_cfg(), seed=0,
                                pretrained_path=path)


@pytest.fixture(scope="module")
def adapted(pretrained, tmp_path_factory):
    """(path, bundle): the pretrained checkpoint with an encoder attached."""
    path, bundle = pretrained
    net, _ = nn.load_checkpoint(path)
    nn.build_encoder(net, seed=1)
    adapted_path = str(tmp_path_factory.mktemp("adapted") / "adapted.npz")
    nn.save_checkpoint(net, adapted_path, meta={"phase": "adapted"})
    return adapted_path, bundle


class TestEncoderCheckpointRejected:
    """A checkpoint holding an encoder is no phase-1 model: a method started
    from it would train or report with the encoder bypassed."""

    @pytest.mark.parametrize("start", ["lrsdag", "source_trained", "grid"])
    def test_raises_before_any_training(self, adapted, monkeypatch, start):
        path, bundle = adapted
        monkeypatch.setattr(engine, "_train", lambda *a, **k: pytest.fail("trained"))
        monkeypatch.setattr(evaluate, "features",
                            lambda *a, **k: pytest.fail("ran N1"))
        with pytest.raises(nn.EncoderAlreadyPresent, match=re.escape(path)):
            if start == "lrsdag":
                engine.run_lrsdag(bundle, quick_cfg(loss="cls"), seed=0,
                                  pretrained_path=path)
            elif start == "source_trained":
                engine.run_baseline(start, bundle, quick_cfg(), seed=0,
                                    pretrained_path=path)
            else:
                engine.grid_search([1e-3], [0.0], bundle,
                                   blob_dataset(30, seed=26, split="val"),
                                   quick_cfg(), method="finetune_n2",
                                   pretrained_path=path)


class TestFreezeCheck:
    @pytest.mark.parametrize("case", ["n2_ulp", "n1_signed_zero"])
    def test_frozen_change_fails_adaptation(self, pretrained, tamper_frozen,
                                            case):
        path, bundle = pretrained
        ckpt, block = tamper_frozen(case, path)
        with pytest.raises(engine.EngineError, match=f"frozen block {block}"):
            engine.run_lrsdag(bundle, quick_cfg(loss="cls", max_adapt_epochs=2),
                              seed=0, pretrained_path=ckpt)

    def test_n1_signed_zero_fails_finetune(self, pretrained, tamper_frozen):
        path, bundle = pretrained
        ckpt, _ = tamper_frozen("n1_signed_zero", path)
        with pytest.raises(engine.EngineError, match="frozen block n1"):
            engine.run_baseline("finetune_n2", bundle,
                                quick_cfg(max_adapt_epochs=2), seed=0,
                                pretrained_path=ckpt)


class TestOptimizerSplit:
    """`_train` decides once what trains: the optimizer it builds holds
    the parameters of exactly the layers not frozen, each once."""

    @pytest.mark.parametrize("fit,blocks", [
        ("phase1", ("n1", "n2")),
        ("target_trained", ("n1", "n2")),
        ("finetune_n2", ("n2",)),
        ("lrsdag", ("encoder",)),
    ], ids=["phase1", "target_trained", "finetune_n2", "lrsdag"])
    def test_adam_holds_the_trainable_parameters(self, pretrained, monkeypatch,
                                                 fit, blocks):
        path, bundle = pretrained
        built = []

        class Recorded(nn.Adam):
            def __init__(self, params, **kwargs):
                super().__init__(params, **kwargs)
                built.append(self)

        monkeypatch.setattr(nn, "Adam", Recorded)
        cfg = quick_cfg(loss="cls", source_epochs=1, max_adapt_epochs=1)
        if fit == "phase1":
            net, _ = engine.train_source(engine.build_model("fcn", seed=1),
                                         bundle.source_train, cfg, seed=0)
        else:
            net, _ = engine._fit(bundle, cfg, fit, 0,
                                 engine.Trial.start(bundle, cfg, 0, path, engine.SPLITS))
        [opt] = built
        expected = net.all_params(blocks)
        assert len(opt.params) == len(expected) == len({id(p) for p in opt.params})
        assert {id(p) for p in opt.params} == {id(p) for p in expected}


def trials_from(bundle, cfg, paths):
    """(averaged, per-trial) records of one LRS-DAG trial per phase-1
    checkpoint, trial t started from paths[t]."""
    records = [engine.run_lrsdag(bundle, cfg, seed=cfg.seed + t,
                                 pretrained_path=path)
               for t, path in enumerate(paths)]
    return engine.average_records(records), records


class TestRunTrials:
    def test_single_trial_average_equals_record(self, pretrained):
        path, bundle = pretrained
        cfg = quick_cfg(loss="cls_mse", max_adapt_epochs=2)
        averaged, records = trials_from(bundle, cfg, [path])
        assert len(records) == 1
        assert averaged.report.accuracy == records[0].report.accuracy

    def test_mean_matches_per_trial_accuracies(self, pretrained):
        path, bundle = pretrained
        cfg = quick_cfg(loss="cls_mse", trials=2, max_adapt_epochs=2)
        averaged, records = trials_from(bundle, cfg, [path, path])
        per_trial = averaged.report.metadata["per_trial_accuracy"]
        for key in evaluate.CELLS:
            mean = np.mean([cells[key] for cells in per_trial])
            assert averaged.report.accuracy[key] == pytest.approx(mean, abs=1e-9)

    def test_determinism_same_seed(self, pretrained):
        path, bundle = pretrained
        cfg = quick_cfg(loss="cls_kl", max_adapt_epochs=2)
        a = engine.run_lrsdag(bundle, cfg, seed=5, pretrained_path=path)
        b = engine.run_lrsdag(bundle, cfg, seed=5, pretrained_path=path)
        assert a.report.accuracy == b.report.accuracy
        assert a.loss_history == b.loss_history


class TestGridSearch:
    def test_singleton_grid(self):
        bundle = blob_bundle()
        val = blob_dataset(30, seed=20, split="val")
        cfg = quick_cfg(source_epochs=2)
        best = engine.grid_search([1e-3], [0.0], bundle, val, cfg,
                                  method="source_trained")
        assert best.lr == 1e-3 and best.weight_decay == 0.0

    def test_nonzero_lr_beats_zero(self):
        bundle = blob_bundle()
        val = blob_dataset(30, seed=21, split="val")
        cfg = quick_cfg(source_epochs=5)
        best = engine.grid_search([0.0, 1e-3], [0.0], bundle, val, cfg,
                                  method="source_trained")
        assert best.lr == 1e-3

    def test_deterministic(self, pretrained):
        path, bundle = pretrained
        val = blob_dataset(30, seed=22, shift=0.6, split="val")
        cfg = quick_cfg(loss="cls_mse", max_adapt_epochs=2)
        first = engine.grid_search([1e-3, 1e-2], [0.0, 1e-4], bundle, val, cfg,
                                   pretrained_path=path)
        second = engine.grid_search([1e-3, 1e-2], [0.0, 1e-4], bundle, val, cfg,
                                    pretrained_path=path)
        assert first == second

    def test_checkpoint_loaded_and_run_through_n1_once(self, pretrained,
                                                       monkeypatch):
        # lr and weight decay change neither the checkpoint nor f(x), so
        # every candidate shares one load and one N1 pass per training
        # split and over the validation set
        path, _ = pretrained
        bundle = blob_bundle(n_train=40)
        val = blob_dataset(30, seed=25, shift=0.6, split="val")
        loads, rows = [], []
        orig_load, orig_features = nn.load_checkpoint, nn.Network.forward_features

        def load(path):
            loads.append(path)
            return orig_load(path)

        def forward_features(net, batch):
            if all(layer.frozen for layer in net.n1):
                rows.append(len(batch))
            return orig_features(net, batch)

        monkeypatch.setattr(nn, "load_checkpoint", load)
        monkeypatch.setattr(nn.Network, "forward_features", forward_features)
        engine.grid_search([1e-3, 1e-2], [0.0, 1e-4], bundle, val,
                           quick_cfg(loss="cls_kl", max_adapt_epochs=1),
                           pretrained_path=path)
        assert loads == [path]
        assert sum(rows) == 40 + 40 + 30

    def test_missing_checkpoint_raises_and_writes_nothing(self, tmp_path):
        # nothing may be trained into the path under the first candidate's
        # lr and then shared by the later candidates
        path = tmp_path / "missing.npz"
        val = blob_dataset(30, seed=23, split="val")
        with pytest.raises(FileNotFoundError):
            engine.grid_search([1e-3, 1e-2], [0.0], blob_bundle(), val,
                               quick_cfg(source_epochs=2),
                               method="source_trained", pretrained_path=str(path))
        assert os.listdir(tmp_path) == []

    def test_checkpoint_with_target_trained_rejected(self, pretrained, tmp_path,
                                                      monkeypatch):
        # target_trained never reads a phase-1 checkpoint, so one passed
        # with it is a mistake to report, not a flag to drop silently
        path, bundle = pretrained
        monkeypatch.setattr(engine, "_fit", lambda *a, **k: pytest.fail("trained"))
        val = blob_dataset(30, seed=24, split="val")
        for ckpt in (path, str(tmp_path / "missing.npz")):
            with pytest.raises(engine.ConfigError, match="--checkpoint"):
                engine.grid_search([1e-3], [0.0], bundle, val, quick_cfg(),
                                   method="target_trained", pretrained_path=ckpt)

    def test_empty_grid_rejected(self):
        with pytest.raises(engine.ConfigError):
            engine.grid_search([], [0.0], blob_bundle(),
                               blob_dataset(10, seed=0), quick_cfg())


class TestReproduce:
    def test_inventory_rows(self):
        rows = engine.method_inventory()
        assert len(rows) == 14
        assert rows[:3] == [("baseline", "source_trained", "-"),
                            ("baseline", "target_trained", "-"),
                            ("baseline", "finetune_n2", "-")]
        assert ("lrsdag", "cls", "-") in rows
        assert ("lrsdag", "coral", "random") in rows

    def test_full_run_and_resume(self, tmp_path):
        bundle = blob_bundle(n_train=60, n_test=40)
        cfg = quick_cfg(source_epochs=3, max_adapt_epochs=2)
        run_a = tmp_path / "a"
        records = engine.reproduce(bundle, cfg, str(run_a))
        assert len(records) == 14
        report_csv = (run_a / "report.csv").read_bytes()
        assert len(report_csv.splitlines()) == 15

        # resume: rerunning with cells present must not change the report
        report_txt = (run_a / "report.txt").read_bytes()
        engine.reproduce(bundle, cfg, str(run_a))
        assert (run_a / "report.csv").read_bytes() == report_csv

        # a truncated cell is computed again, to the same record
        cell = run_a / "cells" / "lrsdag.coral.indirect.trial0.json"
        payload = cell.read_bytes()
        cell.write_bytes(payload[:len(payload) // 2])
        engine.reproduce(bundle, cfg, str(run_a))
        assert (run_a / "report.txt").read_bytes() == report_txt
        assert (run_a / "report.csv").read_bytes() == report_csv
        recomputed = json.loads(cell.read_bytes())
        stored = json.loads(payload)
        recomputed.pop("wall_clock")
        stored.pop("wall_clock")
        assert recomputed == stored

        # a fresh directory reproduces the report byte for byte
        run_b = tmp_path / "b"
        engine.reproduce(bundle, cfg, str(run_b))
        assert (run_b / "report.csv").read_bytes() == report_csv

    def test_report_matches_golden(self, tmp_path):
        # tests/data/golden-report.* were written by this same call before
        # the training and prediction loops were merged, golden-losses.json
        # before the methods were folded into one table
        bundle = blob_bundle(n_train=60, n_test=40)
        cfg = quick_cfg(source_epochs=3, max_adapt_epochs=2)
        engine.reproduce(bundle, cfg, str(tmp_path))
        for name in ("report.txt", "report.csv"):
            golden = os.path.join(GOLDEN_DIR, f"golden-{name}")
            with open(golden, "rb") as fh:
                assert (tmp_path / name).read_bytes() == fh.read(), name
        # 13 of the 14 report rows read 100.00 throughout, so the loss
        # histories are what pin the training arithmetic; they are
        # compared to rounding because BLAS builds differ in the last bits
        with open(os.path.join(GOLDEN_DIR, "golden-losses.json")) as fh:
            golden = json.load(fh)
        cells = sorted(os.listdir(tmp_path / "cells"))
        assert cells == sorted(golden["cells"])
        for name in cells:
            got = json.loads((tmp_path / "cells" / name).read_text())
            np.testing.assert_allclose(got["loss_history"],
                                       golden["cells"][name], rtol=1e-9,
                                       err_msg=name)
        rows = (tmp_path / "source-loss-trial0.csv").read_text().split()[1:]
        np.testing.assert_allclose([float(r.split(",")[1]) for r in rows],
                                   golden["phase1"], rtol=1e-9)

    def test_cell_records_match_golden(self, tmp_path):
        # tests/data/golden-cells.json holds every cell record this same
        # call wrote before a report was reduced to its confusion counts,
        # without wall_clock and the loss histories golden-losses.json pins
        bundle = blob_bundle(n_train=60, n_test=40)
        cfg = quick_cfg(source_epochs=3, max_adapt_epochs=2)
        engine.reproduce(bundle, cfg, str(tmp_path))
        with open(os.path.join(GOLDEN_DIR, "golden-cells.json")) as fh:
            golden = json.load(fh)
        got = {}
        for name in sorted(os.listdir(tmp_path / "cells")):
            text = (tmp_path / "cells" / name).read_text()
            payload = json.loads(text)
            assert text == json.dumps(payload, sort_keys=True, indent=1), name
            del payload["wall_clock"], payload["loss_history"]
            got[name] = payload
        assert got == golden

    def test_source_preservation_column_constant(self, tmp_path):
        bundle = blob_bundle(n_train=60, n_test=40)
        cfg = quick_cfg(source_epochs=3, max_adapt_epochs=2)
        records = engine.reproduce(bundle, cfg, str(tmp_path / "run"))
        values = {f"{rec.report.accuracy['source_without']:.2f}"
                  for rec in records if rec.method not in
                  ("Target only", "Finetune N2")}
        assert len(values) == 1

    def test_record_round_trip(self, tmp_path, pretrained):
        path, bundle = pretrained
        rec = engine.run_lrsdag(bundle, quick_cfg(loss="cls_mse",
                                                  max_adapt_epochs=2),
                                seed=0, pretrained_path=path)
        cell = tmp_path / "cell.json"
        engine._save_record(cell, rec)
        loaded = engine._load_record(cell)
        assert loaded.method == rec.method
        assert loaded.report.accuracy == rec.report.accuracy
        assert loaded.loss_history == rec.loss_history

    def test_data_digest_reads_every_array(self):
        bundle = blob_bundle(n_train=40, n_test=20)
        digest = engine.data_digest(bundle)
        assert digest == engine.data_digest(blob_bundle(n_train=40, n_test=20))
        for name in engine.SPLITS:
            ds = getattr(bundle, name)
            images, labels = ds.images.copy(), ds.labels.copy()
            images[-1].flat[-1] += 1.0
            labels[0] = (labels[0] + 1) % 10
            for changed in ({"images": images}, {"labels": labels},
                            {"images": ds.images.reshape(len(ds), 1, 2, -1)}):
                other = dataclasses.replace(
                    bundle, **{name: dataclasses.replace(ds, **changed)})
                assert engine.data_digest(other) != digest, (name, list(changed))

    def test_other_config_is_rejected(self, tmp_path):
        bundle = blob_bundle(n_train=40, n_test=20)
        cfg = quick_cfg(source_epochs=1, max_adapt_epochs=1)
        engine.reproduce(bundle, cfg, str(tmp_path))
        other = quick_cfg(source_epochs=1, max_adapt_epochs=1, lr=0.05)
        with pytest.raises(engine.ConfigError, match="source_trained"):
            engine.reproduce(bundle, other, str(tmp_path))
        # with the cells gone, the checkpoint's config hash still differs
        for name in os.listdir(tmp_path / "cells"):
            os.remove(tmp_path / "cells" / name)
        with pytest.raises(engine.ConfigError, match="pretrained-trial0.npz"):
            engine.reproduce(bundle, other, str(tmp_path))

    @staticmethod
    def _outputs(run_dir):
        """Report, loss CSVs and cell records of a run; wall_clock left out."""
        out = {}
        for root, _, names in os.walk(run_dir):
            for name in names:
                path = os.path.join(root, name)
                rel = os.path.relpath(path, run_dir)
                if name.endswith(".json"):
                    with open(path, "rb") as fh:
                        payload = json.load(fh)
                    payload.pop("wall_clock")
                    out[rel] = payload
                elif name.endswith((".txt", ".csv")):
                    with open(path, "rb") as fh:
                        out[rel] = fh.read()
        return out

    @pytest.fixture(scope="class")
    def two_trials(self, tmp_path_factory):
        """(bundle, cfg, outputs) of an uninterrupted two-trial run."""
        bundle = blob_bundle(n_train=40, n_test=20)
        cfg = quick_cfg(source_epochs=2, max_adapt_epochs=2, trials=2)
        run_dir = tmp_path_factory.mktemp("whole")
        engine.reproduce(bundle, cfg, str(run_dir))
        return bundle, cfg, self._outputs(run_dir)

    @pytest.mark.parametrize("k", [1, 3, 14 + 2])
    def test_interrupted_run_resumes_to_same_outputs(self, two_trials, tmp_path,
                                                     monkeypatch, k):
        bundle, cfg, want = two_trials
        assert len([n for n in want if n.startswith("cells")]) == 28

        saved = []
        orig = engine._save_record
        lock = threading.Lock()  # cells on two lanes may save at once

        def save(path, rec):
            with lock:
                if len(saved) == k:
                    raise KeyboardInterrupt
                orig(path, rec)
                saved.append(os.path.basename(path))

        run_dir = tmp_path / "cut"
        monkeypatch.setattr(engine, "_save_record", save)
        with pytest.raises(KeyboardInterrupt):
            engine.reproduce(bundle, cfg, str(run_dir))
        assert sorted(os.listdir(run_dir / "cells")) == sorted(saved)
        monkeypatch.setattr(engine, "_save_record", orig)
        computed = []
        for name in ("run_lrsdag", "run_baseline"):
            fn = getattr(engine, name)
            monkeypatch.setattr(engine, name, lambda *a, _fn=fn, **kw:
                                computed.append(1) or _fn(*a, **kw))
        engine.reproduce(bundle, cfg, str(run_dir))
        assert len(computed) == 28 - k
        assert self._outputs(run_dir) == want

    @staticmethod
    def _run(bundle, cfg, run_dir):
        """`_outputs` of a fresh run, plus its phase-1 checkpoints' bytes;
        the thread count is back to its earlier value afterwards."""
        threads = threading.active_count()
        engine.reproduce(bundle, cfg, str(run_dir))
        assert threading.active_count() == threads
        out = TestReproduce._outputs(run_dir)
        for name in os.listdir(run_dir / "checkpoints"):
            out[name] = (run_dir / "checkpoints" / name).read_bytes()
        return out

    def test_bytes_equal_at_every_lane_count(self, tmp_path, monkeypatch):
        """A trial's pretrained cells are dealt over nn.LANES lanes; the run
        dir has the same bytes at 1, 2 and 3 lanes, and with one cell slowed
        so that another lane takes more of them."""
        bundle = blob_bundle(n_train=40, n_test=20)
        cfg = quick_cfg(source_epochs=2, max_adapt_epochs=2)
        runs = []
        for lanes in (1, 2, 3):
            monkeypatch.setattr(nn, "LANES", lanes)
            runs.append(self._run(bundle, cfg, tmp_path / f"lanes{lanes}"))
        monkeypatch.setattr(nn, "LANES", 2)
        ran = []
        orig = engine._compute_cell

        def compute(cell, *args):
            ran.append(threading.current_thread())
            if cell.key == "source_trained":
                ran.append("slow")
                time.sleep(0.5)
            return orig(cell, *args)

        monkeypatch.setattr(engine, "_compute_cell", compute)
        runs.append(self._run(bundle, cfg, tmp_path / "slowed"))
        assert all(run == runs[0] for run in runs[1:])
        # the cells, 12 loss CSVs, report.*, the resolved config, the checkpoint
        assert len(runs[0]) == 14 + 12 + 2 + 1 + 1
        slow = ran[ran.index("slow") - 1]
        ran = [t for t in ran if t != "slow"]
        assert len(ran) == 14 and ran.count(slow) < len(ran) - ran.count(slow)

    def test_first_failed_cell_in_inventory_order_is_raised(self, tmp_path,
                                                              monkeypatch):
        """Two cells raise: the one earlier in inventory order, which raises
        later, is what the run raises (NonFiniteLoss, exit code 3, not
        EngineError's 2), no lane takes a cell after the first failure, and
        a rerun resumes to an uninterrupted run's bytes."""
        bundle = blob_bundle(n_train=40, n_test=20)
        cfg = quick_cfg(source_epochs=2, max_adapt_epochs=2)
        monkeypatch.setattr(nn, "LANES", 2)
        want = self._run(bundle, cfg, tmp_path / "whole")
        orig = engine._compute_cell

        def compute(cell, *args):
            if cell.key == "finetune_n2":
                time.sleep(0.5)
                raise engine.NonFiniteLoss("earlier cell", 0)
            if cell.key == "cls":
                raise engine.EngineError("later cell")
            return orig(cell, *args)

        run_dir = tmp_path / "cut"
        threads = threading.active_count()
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_compute_cell", compute)
            with pytest.raises(engine.NonFiniteLoss, match="earlier cell"):
                engine.reproduce(bundle, cfg, str(run_dir))
        assert threading.active_count() == threads
        assert not (run_dir / "report.txt").exists()
        # after the first failure no lane took another cell
        assert sorted(os.listdir(run_dir / "cells")) == [
            "baseline.source_trained.-.trial0.json", "baseline.target_trained.-.trial0.json"]
        engine.reproduce(bundle, cfg, str(run_dir))
        assert self._run(bundle, cfg, run_dir) == want

    def test_conv_model_cells_run_on_the_calling_thread(self, tmp_path, monkeypatch):
        """A conv network deals its images over the lanes inside each conv,
        so its cells run one at a time on the calling thread."""
        monkeypatch.setattr(nn, "LANES", 2)
        monkeypatch.setattr(engine, "method_inventory", lambda: [
            ("baseline", "source_trained", "-"), ("baseline", "finetune_n2", "-"),
            ("lrsdag", "cls", "-")])
        ran = []
        orig = engine._compute_cell
        monkeypatch.setattr(engine, "_compute_cell", lambda *args: ran.append(
            threading.current_thread()) or orig(*args))
        engine.reproduce(blob_bundle(n_train=20, n_test=10),
                         quick_cfg(model="cnn", source_epochs=1, max_adapt_epochs=1),
                         str(tmp_path))
        assert ran == [threading.main_thread()] * 3

    def test_cells_equal_one_cell_calls(self, tmp_path, monkeypatch):
        bundle = blob_bundle(n_train=40, n_test=20)
        cfg = quick_cfg(source_epochs=2, max_adapt_epochs=2, trials=2)
        loads, rows = [], []
        orig_load, orig_features = nn.load_checkpoint, nn.Network.forward_features

        def load(path):
            loads.append(path)
            return orig_load(path)

        def forward_features(net, batch):
            if all(layer.frozen for layer in net.n1):
                rows.append(len(batch))
            return orig_features(net, batch)

        monkeypatch.setattr(nn, "load_checkpoint", load)
        monkeypatch.setattr(nn.Network, "forward_features", forward_features)
        engine.reproduce(bundle, cfg, str(tmp_path))
        # one checkpoint load and one N1 pass over each split per trial
        assert len(loads) == cfg.trials
        assert sum(rows) == cfg.trials * sum(len(ds) for ds in (
            bundle.source_train, bundle.source_test, bundle.target_train,
            bundle.target_test))
        monkeypatch.undo()

        digest = engine.data_digest(bundle)
        for cell in engine._cells(cfg):
            for trial in range(cfg.trials):
                path = str(tmp_path / "checkpoints" / f"pretrained-trial{trial}.npz")
                seed = cfg.seed + trial
                if cell.family == "lrsdag":
                    rec = engine.run_lrsdag(bundle, cell.cfg, seed=seed,
                                            pretrained_path=path)
                elif cell.key == "target_trained":
                    rec = engine.run_baseline(cell.key, bundle, cfg, seed=seed)
                else:
                    rec = engine.run_baseline(cell.key, bundle, cfg, seed=seed,
                                              pretrained_path=path)
                stored = engine._load_record(cell.path(str(tmp_path), trial))
                for name in ("method", "strategy", "loss_history", "seeds",
                             "config"):
                    assert getattr(rec, name) == getattr(stored, name), name
                # reproduce adds the digest of the data it ran on
                report = stored.report.to_dict()
                assert report["metadata"].pop("data_digest") == digest
                assert rec.report.to_dict() == report

    @pytest.mark.parametrize("method, loss, reads", [
        ("source_trained", "cls", ()),
        ("finetune_n2", "cls", ("target_train",)),
        ("lrsdag", "cls", ("target_train",)),
        ("lrsdag", "cls_kl", ("source_train", "target_train"))])
    def test_one_cell_reads_only_its_splits(self, pretrained, monkeypatch,
                                            method, loss, reads):
        path, bundle = pretrained
        # a split the cell does not read is not there to read
        bundle = engine.DomainData(**{
            name: getattr(bundle, name) if name in reads + engine.TEST_SPLITS
            else None for name in engine.SPLITS})
        rows = []
        orig = nn.Network.forward_features
        monkeypatch.setattr(nn.Network, "forward_features", lambda net, batch:
                            rows.append(len(batch)) or orig(net, batch))
        cfg = quick_cfg(loss=loss, max_adapt_epochs=2)
        if method == "lrsdag":
            engine.run_lrsdag(bundle, cfg, seed=0, pretrained_path=path)
        else:
            engine.run_baseline(method, bundle, cfg, seed=0, pretrained_path=path)
        assert sum(rows) == sum(len(getattr(bundle, name))
                                for name in reads + engine.TEST_SPLITS)

    def test_ensure_pretrained_idempotent(self, tmp_path):
        bundle = blob_bundle(n_train=40, n_test=20)
        cfg = quick_cfg(source_epochs=2)
        digest = engine.data_digest(bundle)
        first = engine.ensure_pretrained(bundle, cfg, str(tmp_path), 0, digest)
        stamp = os.path.getmtime(first)
        second = engine.ensure_pretrained(bundle, cfg, str(tmp_path), 0, digest)
        assert first == second and os.path.getmtime(second) == stamp
        assert sorted(os.listdir(tmp_path)) == ["checkpoints", "source-loss-trial0.csv"]
