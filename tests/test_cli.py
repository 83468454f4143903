"""End-to-end tests for the command-line interface.

Each command is invoked through main() with a throwaway directory tree.
The corpus is the procedural digit generator, kept tiny so the whole
suite stays fast.
"""

import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

from lrsdag import cli, config, data, engine, evaluate, glyphs, losses, nn, sampling
from lrsdag.seeding import derive_rng


def run(*argv):
    return cli.main(list(argv))


def tree_bytes(root):
    """Every file under `root`, by path relative to it, with its bytes."""
    out = {}
    for parent, _, names in os.walk(root):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def reproduce_files(trials):
    """The files `reproduce` leaves in its run dir: per trial a cell record
    for each of the 14 report rows, a loss curve for each of the 11
    LRS-DAG rows, the phase-1 checkpoint and its loss curve; once, the
    resolved config and the report."""
    files = {"config-resolved.txt", "report.csv", "report.txt"}
    for t in range(trials):
        for family, key, strategy in engine.method_inventory():
            files.add(f"cells/{family}.{key}.{strategy}.trial{t}.json")
            if family == "lrsdag":
                files.add(f"adapt-loss.{key}.{strategy}.trial{t}.csv")
        files |= {f"checkpoints/pretrained-trial{t}.npz", f"source-loss-trial{t}.csv"}
    assert len(files) == 3 + (14 + 11 + 2) * trials
    return files


def read_prepared(data_dir, stem, name, split):
    """A prepared split read straight from its two IDX files."""
    images = data.read_idx(os.path.join(data_dir, f"{stem}-images.idx"))
    labels = data.read_idx(os.path.join(data_dir, f"{stem}-labels.idx"),
                           rescale=False).astype(np.int64)
    return data.Dataset(images=data.preprocess(images[:, None]), labels=labels,
                        name=name, split=split)


@pytest.fixture(scope="module")
def prep_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    raw = os.path.join(root, "raw")
    out = os.path.join(root, "prep")
    rc = run("prepare-data", "--mnist-dir", raw, "--out-dir", out,
             "--demo-size", "80", "--syn-seed", "3", "--val-fraction", "0.25")
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def tiny_cfg_path(tmp_path_factory):
    path = os.path.join(tmp_path_factory.mktemp("cli-cfg"), "exp.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("model = fcn\n"
                 "source_epochs = 3\n"
                 "max_adapt_epochs = 2\n"
                 "batch_size = 16\n"
                 "trials = 1\n"
                 "loss = cls_kl\n"
                 "sampling = indirect\n"
                 "stop_threshold = 1e-9\n")
    return path


@pytest.fixture(scope="module")
def source_run(prep_dir, tiny_cfg_path, tmp_path_factory):
    run_dir = str(tmp_path_factory.mktemp("cli-train"))
    rc = run("train-source", "--config", tiny_cfg_path,
             "--data-dir", prep_dir, "--run-dir", run_dir)
    assert rc == 0
    return run_dir


@pytest.fixture(scope="module")
def adapted_ckpt(prep_dir, tiny_cfg_path, source_run, tmp_path_factory):
    """The checkpoint `lrsdag adapt` writes: a phase-1 model plus encoder."""
    run_dir = str(tmp_path_factory.mktemp("cli-adapt"))
    rc = run("adapt", "--config", tiny_cfg_path, "--data-dir", prep_dir,
             "--checkpoint", os.path.join(source_run, "source.npz"),
             "--run-dir", run_dir)
    assert rc == 0
    return os.path.join(run_dir, "adapted.npz")


class TestPrepareData:
    def test_outputs_and_manifest(self, prep_dir):
        manifest = json.loads(
            open(os.path.join(prep_dir, "manifest.json")).read())
        counts = manifest["counts"]
        assert counts["source-train"] == 80
        assert counts["target-train-full"] == 80
        assert counts["target-train"] == 8
        assert counts["target-tune"] + counts["target-val"] == 8
        for stem, pair in manifest["files"].items():
            for name in pair:
                assert os.path.exists(os.path.join(prep_dir, name)), name

    def test_images_are_28x28_bytes(self, prep_dir):
        raw = data.read_idx(os.path.join(prep_dir, "source-train-images.idx"))
        assert raw.shape == (80, 28, 28)
        assert raw.min() >= 0.0 and raw.max() <= 1.0

    def test_deterministic_given_seed(self, prep_dir, tmp_path):
        raw = os.path.join(tmp_path, "raw")
        out = os.path.join(tmp_path, "prep")
        assert run("prepare-data", "--mnist-dir", raw, "--out-dir", out,
                   "--demo-size", "80", "--syn-seed", "3") == 0
        for name in ("source-train-images.idx", "target-train-images.idx",
                     "target-test-labels.idx"):
            a = open(os.path.join(prep_dir, name), "rb").read()
            b = open(os.path.join(out, name), "rb").read()
            assert a == b, name

    def test_missing_input_leaves_no_outputs(self, tmp_path):
        out = os.path.join(tmp_path, "prep")
        rc = run("prepare-data", "--mnist-dir", os.path.join(tmp_path, "nope"),
                 "--out-dir", out)
        assert rc == 2
        assert not os.path.exists(out)

    def test_demo_corpus_wins_over_standard_archives(self, tmp_path):
        """--demo-size reads the corpus it writes, not standard-named
        archives already in --mnist-dir."""
        raw = tmp_path / "raw"
        raw.mkdir()
        for split, count, images, labels in (
                ("train", 50, "train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
                ("test", 12, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")):
            x, y = glyphs.generate_digits(count, seed=9)
            data.write_idx(str(raw / images), x)
            data.write_idx(str(raw / labels), y.astype(np.uint8))
        outs = []
        for name, mnist_dir in (("over", raw), ("empty", tmp_path / "fresh")):
            outs.append(str(tmp_path / name))
            assert run("prepare-data", "--mnist-dir", str(mnist_dir),
                       "--out-dir", outs[-1], "--demo-size", "30",
                       "--syn-seed", "3") == 0
        assert tree_bytes(outs[0]) == tree_bytes(outs[1])
        with open(os.path.join(outs[0], "manifest.json")) as fh:
            assert json.load(fh)["counts"]["source-train"] == 30

    @pytest.mark.parametrize("layout", ["default", "other"])
    def test_finds_the_corpus_write_corpus_wrote(self, tmp_path, monkeypatch, layout):
        """Without --demo-size, prepare-data finds the raw pair names that
        `data.idx_pair` gives, whatever that layout is, and prepares the
        same splits as the --demo-size run that wrote the corpus."""
        if layout == "other":
            monkeypatch.setattr(data, "idx_pair", lambda directory, stem: (
                os.path.join(directory, f"{stem}.images"),
                os.path.join(directory, f"{stem}.labels")))
        demo_raw, demo = str(tmp_path / "demo-raw"), str(tmp_path / "demo")
        assert run("prepare-data", "--mnist-dir", demo_raw, "--out-dir", demo,
                   "--demo-size", "40", "--syn-seed", "5") == 0
        raw, prep = str(tmp_path / "raw"), str(tmp_path / "prep")
        glyphs.write_corpus(raw, n_train=40, n_test=10, seed=5)
        assert sorted(os.listdir(raw)) == sorted(os.listdir(demo_raw))
        assert run("prepare-data", "--mnist-dir", raw, "--out-dir", prep,
                   "--syn-seed", "5") == 0
        got, want = tree_bytes(prep), tree_bytes(demo)
        assert got.pop("manifest.json") != want.pop("manifest.json")  # demo_size
        assert got == want and len(got) == 14

    def test_bad_fraction_is_data_error(self, prep_dir, tmp_path):
        raw = os.path.dirname(prep_dir)
        rc = run("prepare-data", "--mnist-dir", os.path.join(raw, "raw"),
                 "--out-dir", os.path.join(tmp_path, "p"),
                 "--subsample-fraction", "1.5")
        assert rc == 2

    @pytest.mark.parametrize("bad, code", [
        (("--demo-size", "-5"), 1),
        (("--demo-size", "40", "--subsample-fraction", "0"), 2),
        (("--demo-size", "40", "--val-fraction", "1.5"), 2),
        (("--demo-size", "40", "--syn-params-file", "missing.txt"), 2),
        (("--demo-size", "40", "--syn-params-file", "unknown-key.txt"), 1),
        (("--demo-size", "40", "--syn-params-file", "duplicate-key.txt"), 1),
        (("--demo-size", "40", "--syn-params-file", "shear-inf.txt"), 2),
        (("--demo-size", "40", "--syn-params-file", "shear-nan.txt"), 2),
        (("--demo-size", "40", "--syn-params-file", "shear-huge.txt"), 2),
        (("--demo-size", "40", "--syn-params-file", "brightness-inf.txt"), 2),
        (("--demo-size", "40", "--syn-params-file", "contrast-inf.txt"), 2),
        (("--demo-size", "40", "--syn-params-file", "brightness-huge.txt"), 2),
        (("--demo-size", "40", "--syn-params-file", "not-utf8.txt"), 1),
    ], ids=["demo-size", "subsample", "val", "params-missing", "params-key",
            "params-duplicate", "shear-inf", "shear-nan", "shear-huge",
            "brightness-inf", "contrast-inf", "brightness-huge", "params-not-utf8"])
    def test_bad_argument_rejected_before_corpus(self, tmp_path, capsys,
                                                 bad, code):
        (tmp_path / "unknown-key.txt").write_text("flip_prob = 0.5\nbogus = 1\n")
        (tmp_path / "duplicate-key.txt").write_text("flip_prob = 0.5\n"
                                                    "flip_prob = 0.9\n")
        for name, line in (("shear-inf", "shear_max_deg = inf"),
                           ("shear-nan", "shear_max_deg = nan"),
                           ("shear-huge", "shear_max_deg = 1e308"),
                           ("brightness-inf", "brightness_hi = inf"),
                           ("contrast-inf", "contrast_hi = inf"),
                           ("brightness-huge", "brightness_hi = 1e308")):
            (tmp_path / f"{name}.txt").write_text(line + "\n")
        # 0xe9 is Latin-1's e-acute, a byte no UTF-8 text holds alone
        (tmp_path / "not-utf8.txt").write_bytes(b"flip_prob = 0.5 # caf\xe9\n")
        bad = [str(tmp_path / a) if a.endswith(".txt") else a for a in bad]
        raw, out = tmp_path / "raw", tmp_path / "prep"
        assert run("prepare-data", "--mnist-dir", str(raw),
                   "--out-dir", str(out), *bad) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert all(a in err[0] for a in bad if a.endswith("not-utf8.txt"))
        assert not raw.exists() and not out.exists()


    def test_default_syn_params_are_synparams_defaults(self, prep_dir):
        with open(os.path.join(prep_dir, "manifest.json")) as fh:
            written = json.load(fh)["syn_params"]
        default = data.SynParams()
        assert written == {"flip_prob": default.flip_prob,
                           "shear_max_deg": default.shear_max_deg,
                           "brightness": list(default.brightness),
                           "contrast": list(default.contrast)}

    @pytest.mark.parametrize("stem", ["source-train", "target-val"])
    def test_load_prepared_matches_idx_files(self, prep_dir, stem):
        name, split = stem.split("-")
        got = cli._load_prepared(prep_dir, f"{name}_{split}")
        want = read_prepared(prep_dir, stem, name, split)
        assert (got.name, got.split) == (name, split)
        assert got.images.tobytes() == want.images.tobytes()
        assert got.labels.dtype == want.labels.dtype
        np.testing.assert_array_equal(got.labels, want.labels)

    def test_load_prepared_reads_the_given_stem(self, prep_dir):
        # grid-search trains on the tuning split under the name target_train
        got = cli._load_prepared(prep_dir, "target_train", "target-tune")
        want = read_prepared(prep_dir, "target-tune", "target", "train")
        assert (got.name, got.split) == ("target", "train")
        assert got.images.tobytes() == want.images.tobytes()
        np.testing.assert_array_equal(got.labels, want.labels)


class TestTrainSource:
    def test_artifacts(self, source_run, tiny_cfg_path):
        assert sorted(os.listdir(source_run)) == [
            "config-resolved.txt", "source-loss.csv", "source.npz"]
        csv = open(os.path.join(source_run, "source-loss.csv")).read()
        assert csv.startswith("epoch,loss\n")
        assert len(csv.strip().splitlines()) == 1 + 3
        resolved = config.load(os.path.join(source_run,
                                            "config-resolved.txt"))
        assert resolved == config.load(tiny_cfg_path)

    def test_checkpoint_reloads(self, source_run, tiny_cfg_path):
        net, meta = nn.load_checkpoint(os.path.join(source_run, "source.npz"))
        assert net.encoder is None
        cfg = config.load(tiny_cfg_path)
        assert meta == {"phase": "source", "seed": cfg.seed,
                        "config_hash": engine.config_hash(cfg)}


class TestAdaptEvaluate:
    def test_adapt_preserves_frozen_blocks(self, prep_dir, tiny_cfg_path,
                                           source_run, tmp_path):
        run_dir = str(tmp_path)
        ckpt = os.path.join(source_run, "source.npz")
        rc = run("adapt", "--config", tiny_cfg_path, "--data-dir", prep_dir,
                 "--checkpoint", ckpt, "--run-dir", run_dir)
        assert rc == 0
        before, _ = nn.load_checkpoint(ckpt)
        after, meta = nn.load_checkpoint(os.path.join(run_dir, "adapted.npz"))
        assert after.encoder is not None
        assert meta["loss"] == "cls_kl"
        assert engine.checksum(before) == engine.checksum(after)
        assert (config.load(os.path.join(run_dir, "config-resolved.txt"))
                == config.load(tiny_cfg_path))

        rc = run("evaluate", "--checkpoint",
                 os.path.join(run_dir, "adapted.npz"),
                 "--data-dir", prep_dir, "--run-dir", run_dir)
        assert rc == 0
        report = open(os.path.join(run_dir, "report.csv")).read()
        assert "source_without" in report

    @pytest.mark.parametrize("loss, strategy", [
        ("cls", "indirect"), ("cls_kl", "indirect"), ("coral", "random")])
    def test_adapt_equals_hand_wired_reference(self, prep_dir, source_run,
                                               tmp_path, loss, strategy):
        cfg_path = tmp_path / "adapt.cfg"
        cfg_path.write_text("model = fcn\nmax_adapt_epochs = 3\n"
                            "batch_size = 4\nstop_threshold = 1e-9\n"
                            f"seed = 5\nloss = {loss}\nsampling = {strategy}\n")
        ckpt = os.path.join(source_run, "source.npz")
        run_dir = tmp_path / "run"
        assert run("adapt", "--config", str(cfg_path), "--data-dir", prep_dir,
                   "--checkpoint", ckpt, "--run-dir", str(run_dir)) == 0

        # the reference wires phase 2 by hand on the loaded network
        cfg = config.load(str(cfg_path))
        net, _ = nn.load_checkpoint(ckpt)
        sampler = None
        if losses.LOSSES[loss].needs_sampler:
            source = read_prepared(prep_dir, "source-train", "source", "train")
            sampler = sampling.make_sampler(
                strategy, evaluate.feature_matrix(net, source),
                derive_rng(cfg.seed, "sampler", strategy))
        target = read_prepared(prep_dir, "target-train", "target", "train")
        _, history = engine.adapt(net, target, sampler, cfg, seed=cfg.seed)
        want = tmp_path / "want"
        nn.save_checkpoint(net, want / "adapted.npz",
                           meta={"phase": "adapted", "loss": loss,
                                 "sampling": strategy, "seed": cfg.seed})
        (want / "adapt-loss.csv").write_text(
            "epoch,loss\n" + "".join(f"{i},{v:.12g}\n" for i, v in enumerate(history)))

        assert sorted(os.listdir(run_dir)) == [
            "adapt-loss.csv", "adapted.npz", "config-resolved.txt"]
        assert len(history) == 3
        with np.load(run_dir / "adapted.npz") as got, \
                np.load(want / "adapted.npz") as ref:
            assert sorted(got.files) == sorted(ref.files)
            for key in ref.files:
                assert got[key].dtype == ref[key].dtype, key
                assert got[key].tobytes() == ref[key].tobytes(), key
        assert ((run_dir / "adapt-loss.csv").read_bytes()
                == (want / "adapt-loss.csv").read_bytes())

    def test_adapt_cls_reads_no_source_split(self, prep_dir, source_run,
                                             tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for name in ("target-train-images.idx", "target-train-labels.idx"):
            (data_dir / name).write_bytes(
                open(os.path.join(prep_dir, name), "rb").read())
        cfg_path = tmp_path / "cls.cfg"
        cfg_path.write_text("model = fcn\nmax_adapt_epochs = 2\n"
                            "batch_size = 16\nloss = cls\n")
        run_dir = tmp_path / "run"
        assert run("adapt", "--config", str(cfg_path), "--data-dir",
                   str(data_dir), "--checkpoint",
                   os.path.join(source_run, "source.npz"),
                   "--run-dir", str(run_dir)) == 0
        assert (run_dir / "adapted.npz").exists()

    @pytest.mark.parametrize("case", ["n2_ulp", "n1_signed_zero"])
    def test_frozen_change_exits_2_without_checkpoint(
            self, prep_dir, tiny_cfg_path, source_run, tmp_path, tamper_frozen,
            capsys, case):
        ckpt, block = tamper_frozen(case, os.path.join(source_run, "source.npz"))
        run_dir = str(tmp_path / "run")
        rc = run("adapt", "--config", tiny_cfg_path, "--data-dir", prep_dir,
                 "--checkpoint", ckpt, "--run-dir", run_dir)
        assert rc == 2
        assert f"frozen block {block}" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(run_dir, "adapted.npz"))

    def test_nan_through_relu_exits_3(self, prep_dir, tmp_path, capsys):
        # a NaN weight in N1's first conv: the ReLU passes its NaN channel
        # on (np.where zeroed it, and adaptation ran to a plausible model)
        # until `check_finite` stops the fit as a divergence
        net = nn.build_cnn(seed=0)
        net.n1[0].weight.value[3, 0, 1, 1] = np.nan
        ckpt = tmp_path / "nan.npz"
        nn.save_checkpoint(net, ckpt, meta={"phase": "source", "seed": 0})
        cfg_path = tmp_path / "cnn.cfg"
        cfg_path.write_text("model = cnn\nmax_adapt_epochs = 1\n"
                            "batch_size = 16\nloss = cls\n")
        run_dir = tmp_path / "run"
        rc = run("adapt", "--config", str(cfg_path), "--data-dir", prep_dir,
                 "--checkpoint", str(ckpt), "--run-dir", str(run_dir))
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (run_dir / "adapted.npz").exists()

    def test_adapted_checkpoint_exits_2(self, prep_dir, tiny_cfg_path,
                                        adapted_ckpt, tmp_path, capsys):
        # an encoder is attached only to a phase-1 model, which has none
        run_dir = tmp_path / "run"
        rc = run("adapt", "--config", tiny_cfg_path, "--data-dir", prep_dir,
                 "--checkpoint", adapted_ckpt, "--run-dir", str(run_dir))
        assert rc == 2
        assert adapted_ckpt in capsys.readouterr().err
        assert not run_dir.exists()

    def test_not_a_checkpoint_exits_2(self, prep_dir, not_a_checkpoint,
                                       tmp_path, capsys):
        run_dir = tmp_path / "run"
        rc = run("evaluate", "--checkpoint", str(not_a_checkpoint),
                 "--data-dir", prep_dir, "--run-dir", str(run_dir))
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "is not a checkpoint" in err[0], err
        assert not (run_dir / "report.txt").exists()

    @pytest.mark.parametrize("case", ["flatten", "shape"])
    def test_unbuildable_checkpoint_exits_2_naming_it(
            self, prep_dir, unbuildable_checkpoint, tmp_path, capsys, case):
        path = unbuildable_checkpoint(case)
        run_dir = tmp_path / "run"
        rc = run("evaluate", "--checkpoint", path, "--data-dir", prep_dir,
                 "--run-dir", str(run_dir))
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and path in err[0], err
        assert not (run_dir / "report.txt").exists()

    def test_run_dir_env_var(self, prep_dir, tiny_cfg_path, source_run,
                             tmp_path, monkeypatch):
        monkeypatch.setenv("LRSDAG_RUN_DIR", str(tmp_path))
        rc = run("evaluate", "--checkpoint",
                 os.path.join(source_run, "source.npz"),
                 "--data-dir", prep_dir)
        assert rc == 0
        assert os.path.exists(os.path.join(tmp_path, "report.txt"))


class TestBaselineGrid:
    def test_baseline(self, prep_dir, tiny_cfg_path, tmp_path):
        rc = run("baseline", "--kind", "finetune_n2", "--config",
                 tiny_cfg_path, "--data-dir", prep_dir,
                 "--run-dir", str(tmp_path))
        assert rc == 0
        assert sorted(os.listdir(tmp_path)) == [
            "baseline-finetune_n2.json", "config-resolved.txt", "report.csv", "report.txt"]
        assert (config.load(os.path.join(tmp_path, "config-resolved.txt"))
                == config.load(tiny_cfg_path))

    def test_grid_search_writes_best_config(self, prep_dir, tiny_cfg_path,
                                            tmp_path, capsys):
        rc = run("grid-search", "--config", tiny_cfg_path,
                 "--data-dir", prep_dir, "--lrs", "0.001,0.01",
                 "--weight-decays", "0", "--run-dir", str(tmp_path))
        assert rc == 0
        assert os.listdir(tmp_path) == ["best-config.txt"]
        assert os.path.join(tmp_path, "best-config.txt") in capsys.readouterr().out
        best = config.load(os.path.join(tmp_path, "best-config.txt"))
        assert best.lr in (0.001, 0.01)
        assert best.weight_decay == 0.0

    def test_grid_search_missing_checkpoint_is_data_error(self, prep_dir,
                                                           tiny_cfg_path, tmp_path):
        missing = os.path.join(tmp_path, "missing.npz")
        rc = run("grid-search", "--config", tiny_cfg_path,
                 "--data-dir", prep_dir, "--lrs", "0.001,0.01",
                 "--weight-decays", "0", "--method", "source_trained",
                 "--checkpoint", missing, "--run-dir", str(tmp_path))
        assert rc == 2
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag", ["--lrs", "--weight-decays"])
    def test_grid_search_non_number_exits_1_before_reading_data(
            self, tiny_cfg_path, tmp_path, capsys, flag):
        # the data dir does not exist, so reading it first would exit 2
        values = {"--lrs": "0.001", "--weight-decays": "0"}
        values[flag] += ",abc"
        run_dir = tmp_path / "run"
        rc = run("grid-search", "--config", tiny_cfg_path,
                 "--data-dir", str(tmp_path / "no-data"),
                 *(arg for item in values.items() for arg in item),
                 "--run-dir", str(run_dir))
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert not run_dir.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--lrs", ","), ("--lrs", "nan"), ("--lrs", "-1"),
        ("--weight-decays", "inf"), ("--weight-decays", "0,-0.5")])
    def test_grid_search_bad_value_exits_1_before_reading_data(
            self, tiny_cfg_path, tmp_path, capsys, flag, value):
        # no grid, a non-finite or a negative value; the data dir does not
        # exist, so reading it first would exit 2
        values = {"--lrs": "0.001", "--weight-decays": "0", flag: value}
        run_dir = tmp_path / "run"
        rc = run("grid-search", "--config", tiny_cfg_path,
                 "--data-dir", str(tmp_path / "no-data"),
                 *(arg for item in values.items() for arg in item),
                 "--run-dir", str(run_dir))
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert not run_dir.exists()

    def test_grid_values_may_be_zero(self):
        assert cli._numbers("0,0.01") == [0.0, 0.01]

    def test_grid_search_adapted_checkpoint_exits_2(
            self, prep_dir, tiny_cfg_path, adapted_ckpt, tmp_path, capsys):
        # N2 would be fine-tuned with the encoder bypassed, then scored
        # through it
        run_dir = tmp_path / "run"
        rc = run("grid-search", "--config", tiny_cfg_path,
                 "--data-dir", prep_dir, "--lrs", "0.001",
                 "--weight-decays", "0", "--method", "finetune_n2",
                 "--checkpoint", adapted_ckpt, "--run-dir", str(run_dir))
        assert rc == 2
        assert adapted_ckpt in capsys.readouterr().err
        assert not (run_dir / "best-config.txt").exists()

    def test_grid_search_checkpoint_with_target_trained_is_config_error(
            self, prep_dir, tiny_cfg_path, tmp_path, capsys):
        missing = os.path.join(tmp_path, "missing.npz")
        rc = run("grid-search", "--config", tiny_cfg_path,
                 "--data-dir", prep_dir, "--lrs", "0.001,0.01",
                 "--weight-decays", "0", "--method", "target_trained",
                 "--checkpoint", missing, "--run-dir", str(tmp_path))
        assert rc == 1
        assert "--checkpoint" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestReproduce:
    def test_reruns_are_bit_identical(self, prep_dir, tiny_cfg_path,
                                      tmp_path, capsys):
        first = os.path.join(tmp_path, "first")
        rc = run("reproduce", "--experiment", "fcn-mnist-syn",
                 "--config", tiny_cfg_path, "--data-dir", prep_dir,
                 "--run-dir", first)
        assert rc == 0
        out = capsys.readouterr().out
        assert "CLS+KL" in out and "CORAL" in out
        files = tree_bytes(first)
        assert set(files) == reproduce_files(1)
        assert out.encode() == files["report.txt"]
        report = open(os.path.join(first, "report.csv"), "rb").read()
        assert report.decode().count("\n") == 15  # header + 14 method rows
        # the experiment sets the model and nothing else
        resolved = config.load(os.path.join(first, "config-resolved.txt"))
        assert resolved == dataclasses.replace(config.load(tiny_cfg_path),
                                               model="fcn")

        # resumed rerun reuses the cell cache and reproduces the bytes
        assert run("reproduce", "--experiment", "fcn-mnist-syn",
                   "--config", tiny_cfg_path, "--data-dir", prep_dir,
                   "--run-dir", first) == 0
        assert open(os.path.join(first, "report.csv"), "rb").read() == report

        # fresh directory recomputes everything to the same bytes
        second = os.path.join(tmp_path, "second")
        assert run("reproduce", "--experiment", "fcn-mnist-syn",
                   "--config", tiny_cfg_path, "--data-dir", prep_dir,
                   "--run-dir", second) == 0
        assert open(os.path.join(second, "report.csv"), "rb").read() == report

    def test_rerun_with_other_lr_is_config_error(self, prep_dir, tiny_cfg_path,
                                                 tmp_path, capsys):
        run_dir = os.path.join(tmp_path, "run")
        assert run("reproduce", "--experiment", "fcn-mnist-syn",
                   "--config", tiny_cfg_path, "--data-dir", prep_dir,
                   "--run-dir", run_dir) == 0
        other = os.path.join(tmp_path, "other.cfg")
        with open(other, "w", encoding="utf-8") as fh:
            fh.write(open(tiny_cfg_path, encoding="utf-8").read() + "lr = 0.05\n")

        def refused_naming(named):
            before = tree_bytes(run_dir)
            capsys.readouterr()
            assert run("reproduce", "--experiment", "fcn-mnist-syn",
                       "--config", other, "--data-dir", prep_dir,
                       "--run-dir", run_dir) == 1
            assert named in capsys.readouterr().err
            # nothing is written, config-resolved.txt included
            assert tree_bytes(run_dir) == before

        refused_naming("cells")
        # with the cells gone, the phase-1 checkpoint is what differs
        for name in os.listdir(os.path.join(run_dir, "cells")):
            os.remove(os.path.join(run_dir, "cells", name))
        refused_naming("pretrained-trial0.npz")

    def test_other_checkpoint_in_a_later_trial_computes_no_cell(
            self, prep_dir, tiny_cfg_path, source_run, tmp_path, capsys):
        """Trial 1's checkpoint from another config refuses the run before
        trial 0, which has nothing stored, computes anything."""
        two = os.path.join(tmp_path, "two.cfg")
        with open(two, "w", encoding="utf-8") as fh:
            fh.write(open(tiny_cfg_path, encoding="utf-8").read()
                     .replace("trials = 1", "trials = 2"))
        run_dir = os.path.join(tmp_path, "run")
        os.makedirs(os.path.join(run_dir, "checkpoints"))
        # trained under the one-trial config, so its config hash differs
        with open(os.path.join(source_run, "source.npz"), "rb") as src, \
                open(os.path.join(run_dir, "checkpoints",
                                  "pretrained-trial1.npz"), "wb") as dst:
            dst.write(src.read())
        before = tree_bytes(run_dir)
        assert run("reproduce", "--experiment", "fcn-mnist-syn",
                   "--config", two, "--data-dir", prep_dir,
                   "--run-dir", run_dir) == 1
        assert "pretrained-trial1.npz" in capsys.readouterr().err
        assert tree_bytes(run_dir) == before

    def test_rerun_on_regenerated_data_exits_2(self, tiny_cfg_path, tmp_path,
                                               capsys):
        """Data regenerated in place under another --syn-seed is refused
        by the data digest its cells and checkpoints store, before any
        file is written."""
        prep = str(tmp_path / "prep")

        def prepare(syn_seed):
            assert run("prepare-data", "--mnist-dir", str(tmp_path / "raw"),
                       "--out-dir", prep, "--demo-size", "80",
                       "--syn-seed", syn_seed, "--val-fraction", "0.25") == 0

        prepare("3")
        run_dir = str(tmp_path / "run")
        argv = ("reproduce", "--experiment", "fcn-mnist-syn", "--config",
                tiny_cfg_path, "--data-dir", prep, "--run-dir", run_dir)
        assert run(*argv) == 0
        prepare("4")

        def refused_naming(named):
            before = tree_bytes(run_dir)
            capsys.readouterr()
            assert run(*argv) == 2
            err = capsys.readouterr().err
            assert named in err and "other data" in err
            assert tree_bytes(run_dir) == before

        refused_naming("cells")
        # with the cells gone, the phase-1 checkpoint is what differs
        for name in os.listdir(os.path.join(run_dir, "cells")):
            os.remove(os.path.join(run_dir, "cells", name))
        refused_naming("pretrained-trial0.npz")

    def test_same_data_from_another_path_resumes(self, prep_dir, tiny_cfg_path,
                                                 tmp_path, monkeypatch):
        """A run is its config and its data's digest, not the path the data
        was read from: a copy under a name no config line could hold ('#'
        starts a comment; Python reads a non-UTF-8 byte in argv as U+DCFF)
        resumes every cell and writes the same bytes."""
        copy = str(tmp_path / "pre#\udcffpared")
        shutil.copytree(prep_dir, copy)

        def reproduce(data_dir, run_dir):
            return run("reproduce", "--experiment", "fcn-mnist-syn",
                       "--config", tiny_cfg_path, "--data-dir", data_dir,
                       "--run-dir", run_dir)

        first = tmp_path / "first"
        assert reproduce(prep_dir, str(first)) == 0
        before = tree_bytes(first)

        def compute(*args):
            raise AssertionError("a stored cell was computed again")

        with monkeypatch.context() as patch:
            patch.setattr(engine, "_reproduce_trial", compute)
            assert reproduce(copy, str(first)) == 0
        assert tree_bytes(first) == before

        fresh = tmp_path / "fresh"
        assert reproduce(copy, str(fresh)) == 0
        for name in ("report.txt", "config-resolved.txt"):
            assert (fresh / name).read_bytes() == (first / name).read_bytes(), name

    def test_stored_cell_unlike_source_only_exits_2(self, prep_dir, tiny_cfg_path,
                                                    tmp_path, capsys):
        """With the encoder bypassed an LRS-DAG cell scores the phase-1
        model, so a stored cell whose bypassed counts differ from Source
        only's (valid JSON, same config and digest) refuses the rerun."""
        run_dir = tmp_path / "run"
        argv = ("reproduce", "--experiment", "fcn-mnist-syn", "--config",
                tiny_cfg_path, "--data-dir", prep_dir, "--run-dir", str(run_dir))
        assert run(*argv) == 0
        cell = run_dir / "cells" / "lrsdag.coral.random.trial0.json"
        payload = json.loads(cell.read_text(encoding="utf-8"))
        counts = payload["report"]["confusion"]["target_without"]
        label = next(i for i in range(10) if counts[i][i])
        counts[label][label] -= 1  # one prediction moved to another class
        counts[label][(label + 1) % 10] += 1
        cell.write_text(json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8")
        before = tree_bytes(run_dir)
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "lrsdag.coral.random.trial0.json" in err
        assert "baseline.source_trained.-.trial0.json" in err
        assert tree_bytes(run_dir) == before

    def test_computed_cell_unlike_source_only_exits_2(self, prep_dir, tiny_cfg_path,
                                                      tmp_path, capsys, monkeypatch):
        """A fresh run whose first encoder-bearing evaluation flips one
        encoder-bypassed prediction writes no report."""
        orig = evaluate._shared_n1_predictions
        flipped = []

        def flip_once(net, ds, settings):
            preds = orig(net, ds, settings)
            if net.encoder is not None and not flipped:
                preds[0, 0] = (preds[0, 0] + 1) % 10
                flipped.append(ds.name)
            return preds

        monkeypatch.setattr(evaluate, "_shared_n1_predictions", flip_once)
        run_dir = tmp_path / "run"
        assert run("reproduce", "--experiment", "fcn-mnist-syn", "--config",
                   tiny_cfg_path, "--data-dir", prep_dir, "--run-dir", str(run_dir)) == 2
        assert flipped
        err = capsys.readouterr().err
        assert "baseline.source_trained.-.trial0.json" in err
        named = [c.path(str(run_dir), 0) for c in engine._cells(config.load(tiny_cfg_path))
                 if c.family == "lrsdag" and c.path(str(run_dir), 0) in err]
        assert len(named) == 1
        assert not (run_dir / "report.txt").exists()

    def test_unknown_experiment_is_usage_error(self, prep_dir):
        assert run("reproduce", "--experiment", "no-such",
                   "--data-dir", prep_dir) == 1


class TestExportEmbeddings:
    def test_writes_three_csvs(self, prep_dir, source_run, tmp_path):
        # attach an encoder so the mapped-feature file appears too
        net, _ = nn.load_checkpoint(os.path.join(source_run, "source.npz"))
        net.encoder = nn.build_encoder(net, seed=0)
        ckpt = os.path.join(tmp_path, "with-encoder.npz")
        nn.save_checkpoint(net, ckpt, meta={"phase": "adapted"})
        out = os.path.join(tmp_path, "emb")
        rc = run("export-embeddings", "--checkpoint", ckpt,
                 "--data-dir", prep_dir, "--out-dir", out,
                 "--split", "test", "--cap", "10")
        assert rc == 0
        for name in ("fS.csv", "fT.csv", "hfT.csv"):
            rows = open(os.path.join(out, name)).read().strip().splitlines()
            assert 0 < len(rows) - 1 <= 10

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_exits_1(self, prep_dir, source_run, tmp_path,
                                   capsys, cap):
        out = tmp_path / "emb"
        rc = run("export-embeddings", "--checkpoint",
                 os.path.join(source_run, "source.npz"), "--data-dir", prep_dir,
                 "--out-dir", str(out), "--cap", cap)
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--cap" in err[0], err
        assert not out.exists()


class TestExitCodes:
    def test_no_command_is_usage(self):
        assert run() == 1

    def test_missing_required_flag(self):
        assert run("train-source") == 1

    def test_missing_data_dir(self, tmp_path):
        assert run("train-source", "--data-dir",
                   os.path.join(tmp_path, "nope"),
                   "--run-dir", str(tmp_path)) == 2

    def test_bad_config_value(self, prep_dir, tmp_path):
        bad = os.path.join(tmp_path, "bad.cfg")
        open(bad, "w").write("lr = abc\n")
        assert run("train-source", "--config", bad, "--data-dir", prep_dir,
                   "--run-dir", str(tmp_path)) == 1

    def test_nonfinite_config_value_writes_no_checkpoint(self, prep_dir,
                                                         tmp_path, capsys):
        bad = os.path.join(tmp_path, "bad.cfg")
        open(bad, "w").write("lr = nan\nsource_epochs = 1\n")
        run_dir = os.path.join(tmp_path, "run")
        assert run("train-source", "--config", bad, "--data-dir", prep_dir,
                   "--run-dir", run_dir) == 1
        assert "lr must be finite" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(run_dir, "source.npz"))

    @pytest.mark.parametrize("key", ["val_fraction", "source", "target"])
    def test_val_fraction_is_not_a_config_key(self, prep_dir, tmp_path,
                                              capsys, key):
        # lines older config files hold: the validation split is set by
        # prepare-data --val-fraction, and the data a run read is named by
        # its digest, not by a path
        value = "0.2" if key == "val_fraction" else "data/prepared"
        bad = os.path.join(tmp_path, "old.cfg")
        open(bad, "w").write(f"seed = 1\n{key} = {value}\n")
        assert run("train-source", "--config", bad, "--data-dir", prep_dir,
                   "--run-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and repr(key) in err

    def test_config_not_utf8_exits_1_naming_it(self, prep_dir, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"seed = 1\n# caf\xe9\n")
        run_dir = tmp_path / "run"
        assert run("train-source", "--config", str(bad), "--data-dir", prep_dir,
                   "--run-dir", str(run_dir)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"configuration error: {bad}: byte 14 is not UTF-8 text"]
        assert not run_dir.exists()

    def test_unknown_config_key(self, prep_dir, tmp_path):
        bad = os.path.join(tmp_path, "bad.cfg")
        open(bad, "w").write("learning_rate = 0.1\n")
        assert run("train-source", "--config", bad, "--data-dir", prep_dir,
                   "--run-dir", str(tmp_path)) == 1

    def test_overflowing_idx_dims_exit_2(self, prep_dir, tmp_path, capsys):
        # two dimensions of 2**32 - 1 multiply past 2**63
        data_dir = tmp_path / "data"
        shutil.copytree(prep_dir, data_dir)
        (data_dir / "source-train-images.idx").write_bytes(
            bytes([0, 0, 8, 2]) + b"\xff" * 8 + bytes(16))
        assert run("train-source", "--data-dir", str(data_dir),
                   "--run-dir", str(tmp_path / "run")) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "expected 18446744065119617025 data bytes" in err[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, prep_dir, tmp_path):
        cfg = os.path.join(tmp_path, "div.cfg")
        open(cfg, "w").write("lr = 1e200\nsource_epochs = 2\nbatch_size = 16\n")
        assert run("train-source", "--config", cfg, "--data-dir", prep_dir,
                   "--run-dir", str(tmp_path)) == 3

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as err:
            run("--help")
        assert err.value.code == 0
