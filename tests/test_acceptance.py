"""Acceptance suite: the eight headline guarantees of the package.

Each criterion prints a single [PASS]/[FAIL] line (visible with -s, or
in captured output on failure). The desk-scale fixtures are shared, so
the expensive pieces (corpus synthesis, three pretrains) run once.

Criterion summary:
  1. adaptation never changes the frozen halves or bypassed predictions
  2. desk-scale target gain with the encoder >= 8 points (3 trials)
  3. KL and reverse-KL land within 2 points; CORAL trails (soft)
  4. analytic gradients match finite differences (< 1e-4)
  5. loss values match frozen closed-form oracles (< 1e-6)
  6. fitted-Gaussian sampler statistics within 4-sigma Monte Carlo bounds
  7. two identical pipeline runs produce bit-identical reports
  8. storage round trips and stratified subsampling are exact
"""

import dataclasses
import os
import warnings

import numpy as np
import pytest

from lrsdag import cli, data, engine, evaluate, losses, nn, sampling
from lrsdag import tensor_core as tc
from lrsdag.seeding import derive_rng

from gradcheck import grad_check

DESK_SEED = 0
DESK_CFG = engine.ExperimentConfig(
    model="fcn", lr=1e-3, batch_size=128, source_epochs=30,
    stop_threshold=1e-3, max_adapt_epochs=40, trials=3, seed=DESK_SEED,
    loss="cls_kl", sampling="indirect")


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """Desk-scale corpus: 10000 source digits, 10% labeled target subset."""
    root = tmp_path_factory.mktemp("acceptance")
    prep = os.path.join(root, "prep")
    rc = cli.main(["prepare-data", "--mnist-dir", os.path.join(root, "raw"),
                   "--out-dir", prep, "--demo-size", "10000",
                   "--syn-seed", str(DESK_SEED)])
    assert rc == 0
    return {"root": str(root), "prep": prep,
            "bundle": cli._load_bundle(prep)}


@pytest.fixture(scope="module")
def pretrained_paths(desk):
    run_dir = os.path.join(desk["root"], "runs")
    digest = engine.data_digest(desk["bundle"])
    return [engine.ensure_pretrained(desk["bundle"], DESK_CFG, run_dir, t, digest)
            for t in range(DESK_CFG.trials)]


@pytest.fixture(scope="module")
def ordering_runs(desk, pretrained_paths):
    """Averaged 3-trial records for the losses the ordering criteria use."""
    out = {}
    for loss in ("cls_kl", "cls_kl_rev", "coral"):
        cfg = dataclasses.replace(DESK_CFG, loss=loss)
        out[loss] = engine.average_records([
            engine.run_lrsdag(desk["bundle"], cfg, seed=cfg.seed + t,
                              pretrained_path=path)
            for t, path in enumerate(pretrained_paths)])
    return out


def test_criterion_1_source_preservation(desk, pretrained_paths):
    bundle = desk["bundle"]
    reference, _ = nn.load_checkpoint(pretrained_paths[0])
    want_sum = engine.checksum(reference)
    want_preds = evaluate.predictions(reference, bundle.source_test,
                                      use_encoder=False)
    cfg = dataclasses.replace(DESK_CFG, max_adapt_epochs=3)
    combos = [("cls", "indirect")] + [(kind, strat)
                                      for kind, loss in losses.LOSSES.items()
                                      if loss.needs_sampler
                                      for strat in ("indirect", "random")]
    failures = []
    for kind, strat in combos:
        net, _ = nn.load_checkpoint(pretrained_paths[0])
        sampler = None
        if losses.LOSSES[kind].needs_sampler:
            feats = evaluate.feature_matrix(net, bundle.source_train)
            sampler = sampling.make_sampler(strat, feats,
                                            derive_rng(DESK_SEED, "sampler",
                                                       strat))
        engine.adapt(net, bundle.target_train, sampler,
                     dataclasses.replace(cfg, loss=kind), seed=DESK_SEED)
        same_sum = engine.checksum(net) == want_sum
        same_preds = np.array_equal(
            evaluate.predictions(net, bundle.source_test, use_encoder=False),
            want_preds)
        if not (same_sum and same_preds):
            failures.append(f"{kind}/{strat}")

    # spot check the convolutional architecture on a small subset
    small = bundle.source_train.select(np.arange(256), split="train")
    small_t = bundle.target_train.select(np.arange(64), split="train")
    cnn_cfg = dataclasses.replace(DESK_CFG, model="cnn", source_epochs=2,
                                  max_adapt_epochs=2, batch_size=32)
    cnn = engine.build_model("cnn", DESK_SEED)
    engine.train_source(cnn, small, cnn_cfg, seed=DESK_SEED)
    cnn_sum = engine.checksum(cnn)
    cnn_preds = evaluate.predictions(cnn, small, use_encoder=False)
    feats = evaluate.feature_matrix(cnn, small)
    engine.adapt(cnn, small_t,
                 sampling.make_sampler("indirect", feats,
                                       derive_rng(DESK_SEED, "s")),
                 cnn_cfg, seed=DESK_SEED)
    if engine.checksum(cnn) != cnn_sum or not np.array_equal(
            evaluate.predictions(cnn, small, use_encoder=False), cnn_preds):
        failures.append("cnn cls_kl/indirect")

    _report(1, not failures,
            "frozen checksums and bypassed source predictions bit-identical "
            f"across {len(combos)} fcn runs + 1 cnn run"
            + (f"; violated by {failures}" if failures else ""))


def test_criterion_2_desk_scale_gap(ordering_runs):
    acc = ordering_runs["cls_kl"].report.accuracy
    gap = acc["target_with"] - acc["target_without"]
    _report(2, gap >= 8.0,
            f"CLS+KL/indirect target accuracy {acc['target_without']:.2f} "
            f"without encoder vs {acc['target_with']:.2f} with "
            f"(gap {gap:+.2f}, need >= +8.00, 3 trials)")


def test_criterion_3_loss_ordering(ordering_runs):
    kl = ordering_runs["cls_kl"].report.accuracy["target_with"]
    kl_rev = ordering_runs["cls_kl_rev"].report.accuracy["target_with"]
    coral = ordering_runs["coral"].report.accuracy["target_with"]
    twin_gap = abs(kl - kl_rev)
    coral_gap = kl - coral
    if coral_gap < 3.0:
        warnings.warn(
            f"soft criterion miss: CORAL ({coral:.2f}) trails CLS+KL "
            f"({kl:.2f}) by only {coral_gap:+.2f} points (target >= 3); "
            "informational per the acceptance contract", stacklevel=1)
    _report(3, twin_gap < 2.0,
            f"CLS+KL {kl:.2f} vs CLS+KL-Rev {kl_rev:.2f} "
            f"(|diff| {twin_gap:.2f} < 2); CORAL {coral:.2f} "
            f"trails by {coral_gap:+.2f} (soft, >= 3 wanted)")


def test_criterion_4_gradient_suite():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        B, k = 4, 3

        fS = rng.normal(size=(B, k)) * 2.0
        for fn in (loss.align for loss in losses.LOSSES.values() if loss.align):
            worst = max(worst, grad_check(lambda h: fn(fS, h),
                                          rng.normal(size=(B, k))))

        labels = rng.integers(0, 5, size=B)
        worst = max(worst, grad_check(
            lambda z: (tc.cross_entropy(z, labels),
                       tc.cross_entropy_grad(z, labels)),
            rng.normal(size=(B, 5))))

        lin = nn.Linear(6, 4, rng)
        x0 = rng.normal(size=(3, 6))
        dout = rng.normal(size=(3, 4))

        def lin_fn(x):
            out = lin.forward(x)
            return float(np.sum(out * dout)), lin.backward(dout)

        worst = max(worst, grad_check(lin_fn, x0))

        conv = nn.Conv2d(2, 3, 3, 3, stride=1, padding=1, rng=rng)
        xc = rng.normal(size=(2, 2, 5, 5))
        dc = rng.normal(size=(2, 3, 5, 5))

        def conv_fn(x):
            out = conv.forward(x)
            return float(np.sum(out * dc)), conv.backward(dc)

        worst = max(worst, grad_check(conv_fn, xc, max_coords=40,
                                      rng=np.random.default_rng(seed)))

        relu = nn.ReLU()
        xr = rng.normal(size=(4, 7))
        xr = np.where(np.abs(xr) < 0.01, 0.5, xr)  # keep off the kink
        dr = rng.normal(size=(4, 7))

        def relu_fn(x):
            out = relu.forward(x)
            return float(np.sum(out * dr)), relu.backward(dr)

        worst = max(worst, grad_check(relu_fn, xr))
    _report(4, worst < 1e-4,
            f"max relative gradient error {worst:.3e} over layers and "
            "losses, 10 seeds each (< 1e-4)")


def test_criterion_5_loss_oracles():
    checks = []

    # two-class softmax pair: logits (0,0) vs (0,ln 3), i.e. distributions
    # (1/2,1/2) vs (1/4,3/4); the quoted 5-decimal constants identify the
    # closed forms, which the computed values must match within 1e-6
    p = np.array([[0.5, 0.5]])
    q = np.array([[0.25, 0.75]])
    kl_exact = 0.5 * np.log(0.5 / 0.25) + 0.5 * np.log(0.5 / 0.75)
    kl, _ = losses.loss_kl(np.log(p), np.log(q) + 1.0)  # shift-invariant logits
    checks.append(("KL oracle 0.14384",
                   abs(kl - kl_exact) < 1e-6 and round(kl, 5) == 0.14384))
    rev_exact = 0.25 * np.log(0.25 / 0.5) + 0.75 * np.log(0.75 / 0.5)
    kl_rev, _ = losses.loss_kl_rev(np.log(p), np.log(q))
    checks.append(("KL-Rev oracle 0.13081",
                   abs(kl_rev - rev_exact) < 1e-6
                   and round(kl_rev, 5) == 0.13081))

    # CORAL with B=2, k=1, centered difference of variances 2 vs 0
    fS = np.array([[1.0], [-1.0]])
    hfT = np.array([[0.0], [0.0]])
    coral, _ = losses.loss_coral(fS, hfT)
    checks.append(("CORAL B=2 oracle", abs(coral - 1.0) < 1e-6))

    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 4))
    checks.append(("KL zero at identity", losses.loss_kl(x, x)[0] < 1e-12))
    y = rng.normal(size=(6, 4))
    checks.append(("KL nonnegative", losses.loss_kl(x, y)[0] >= 0.0))
    checks.append(("KL asymmetric",
                   abs(losses.loss_kl(x, y)[0]
                       - losses.loss_kl(y, x)[0]) > 1e-8))
    shift = rng.normal(size=(1, 4))
    checks.append(("CORAL translation invariant",
                   abs(losses.loss_coral(x + shift, y + shift)[0]
                       - losses.loss_coral(x, y)[0]) < 1e-9))
    checks.append(("CORAL batch-swap symmetric",
                   abs(losses.loss_coral(x, y)[0]
                       - losses.loss_coral(y, x)[0]) < 1e-12))
    perm = rng.permutation(6)
    checks.append(("Norm permutation invariant",
                   abs(losses.loss_norm(x[perm], y[perm])[0]
                       - losses.loss_norm(x, y)[0]) < 1e-12))

    bad = [name for name, ok in checks if not ok]
    _report(5, not bad,
            f"{len(checks)} loss identities and frozen oracles"
            + (f"; failed: {bad}" if bad else ""))


def test_criterion_6_sampler_statistics():
    rng = np.random.default_rng(12)
    feats = rng.normal(loc=rng.normal(size=5), scale=rng.uniform(0.5, 3.0, 5),
                       size=(400, 5))
    mean, std = feats.mean(axis=0), feats.std(axis=0)
    n = 100000
    draws = sampling.IndirectSampler(feats, derive_rng(12, "ind")).draw(n)
    mean_err = np.abs(draws.mean(axis=0) - mean)
    std_err = np.abs(draws.std(axis=0) - std)
    mean_bound = 4.0 * std / np.sqrt(n)
    std_bound = 4.0 * std / np.sqrt(2.0 * n)
    ok_mean = bool(np.all(mean_err <= mean_bound))
    ok_std = bool(np.all(std_err <= std_bound))

    rs = sampling.RandomSampler(feats, derive_rng(12, "rand"))
    picks = rs.draw(64)
    member = bool(np.all((picks[:, None, :] == feats[None, :, :])
                         .all(axis=2).any(axis=1)))
    _report(6, ok_mean and ok_std and member,
            f"n={n} draws: max mean error {mean_err.max():.4f} "
            f"(bound {mean_bound.min():.4f}..{mean_bound.max():.4f}), "
            f"max std error {std_err.max():.4f}; random-sampler rows "
            f"all members of the source set: {member}")


def test_criterion_7_determinism(tmp_path):
    raw = os.path.join(tmp_path, "raw")
    prep = os.path.join(tmp_path, "prep")
    assert cli.main(["prepare-data", "--mnist-dir", raw, "--out-dir", prep,
                     "--demo-size", "80", "--syn-seed", "1",
                     "--val-fraction", "0.25"]) == 0
    cfg = os.path.join(tmp_path, "exp.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write("model = fcn\nsource_epochs = 3\nmax_adapt_epochs = 2\n"
                 "batch_size = 16\ntrials = 1\nstop_threshold = 1e-9\n")
    blobs = []
    for name in ("one", "two"):
        run_dir = os.path.join(tmp_path, name)
        assert cli.main(["reproduce", "--experiment", "fcn-mnist-syn",
                         "--config", cfg, "--data-dir", prep,
                         "--run-dir", run_dir]) == 0
        with open(os.path.join(run_dir, "report.csv"), "rb") as fh:
            csv_bytes = fh.read()
        with open(os.path.join(run_dir, "report.txt"), "rb") as fh:
            txt_bytes = fh.read()
        blobs.append((csv_bytes, txt_bytes))
    same = blobs[0] == blobs[1]
    _report(7, same,
            "two full pipeline runs with identical config produced "
            f"bit-identical report files ({len(blobs[0][0])} csv bytes, "
            f"{len(blobs[0][1])} txt bytes)")


def test_criterion_8_data_integrity(tmp_path):
    rng = np.random.default_rng(3)

    raw = rng.integers(0, 256, size=(7, 28, 28)).astype(np.uint8)
    path = os.path.join(tmp_path, "roundtrip.idx")
    data.write_idx(path, raw)
    bytes_ok = np.array_equal(data.read_idx(path, rescale=False), raw)
    floats_ok = np.array_equal(data.read_idx(path), raw / 255.0)
    idx_ok = bytes_ok and floats_ok

    base = data.Dataset(images=rng.random((20, 1, 28, 28)),
                        labels=rng.integers(0, 10, 20).astype(np.int64),
                        name="d", split="train")
    identity = data.SynParams(flip_prob=0.0, shear_max_deg=0.0,
                              brightness=(1.0, 1.0), contrast=(1.0, 1.0),
                              seed=9)
    syn = data.make_syn_mnist(base, identity)
    syn_ok = (syn.images is not base.images
              and np.array_equal(syn.images, base.images))

    labels = np.repeat(np.arange(10), 100).astype(np.int64)
    ds = data.Dataset(images=rng.random((1000, 1, 28, 28)), labels=labels,
                      name="d", split="train")
    sub = data.subsample_labeled(ds, 0.1, seed=4)
    counts = np.bincount(sub.labels, minlength=10)
    strat_ok = (len(sub) == 100
                and bool(np.all(np.abs(counts - 10) <= 1)))

    ok = idx_ok and syn_ok and strat_ok
    _report(8, ok,
            f"idx round trip {idx_ok}, identity transform bit-equal {syn_ok}, "
            f"stratified 10% counts within +/-1 {strat_ok}")
