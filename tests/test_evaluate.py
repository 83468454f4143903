import contextlib
import tracemalloc
import types

import numpy as np
import pytest

from lrsdag import data, evaluate, nn


class StubNet:
    """Logits are the first ten flattened pixels; no encoder."""

    encoder = None

    def inference(self):
        return contextlib.nullcontext()

    def forward_features(self, batch):
        return np.asarray(batch).reshape(len(batch), -1)

    def head(self, feats, use_encoder=False):
        return None, feats[:, :10]


def onehot_dataset(n=40):
    labels = np.arange(n, dtype=np.int64) % 10
    images = np.zeros((n, 1, 32, 32))
    images.reshape(n, -1)[np.arange(n), labels] = 1.0
    return data.Dataset(images=images, labels=labels, name="onehot", split="test")


def balanced_dataset(n=40):
    rng = np.random.default_rng(0)
    return data.Dataset(images=rng.random((n, 1, 32, 32)),
                        labels=np.arange(n, dtype=np.int64) % 10,
                        name="toy", split="test")


class TestAccuracy:
    def test_perfect_predictor(self):
        assert evaluate.accuracy(StubNet(), onehot_dataset()) == 100.0

    def test_constant_predictor_on_balanced_data(self):
        net = nn.build_fcn(seed=0)
        for layer in net.n1 + net.n2:
            layer.weight.value[:] = 0.0
            layer.bias.value[:] = 0.0
        assert evaluate.accuracy(net, balanced_dataset()) == 10.0

    def test_tie_breaks_to_lowest_class(self):
        ds = balanced_dataset(10)
        zero_logit_net = StubNet()
        images = np.zeros_like(ds.images)
        ds = data.Dataset(images=images, labels=ds.labels, name="t", split="test")
        preds = evaluate.predictions(zero_logit_net, ds)
        np.testing.assert_array_equal(preds, np.zeros(10, dtype=np.int64))


class TestConfusion:
    def test_perfect_predictor_is_diagonal(self):
        ds = onehot_dataset()
        matrix = evaluate.confusion_matrix(StubNet(), ds)
        np.testing.assert_array_equal(matrix, np.diag(np.full(10, 4)))

    def test_constant_predictor_fills_column_zero(self):
        ds = balanced_dataset()
        images = np.zeros_like(ds.images)
        ds = data.Dataset(images=images, labels=ds.labels, name="t", split="test")
        matrix = evaluate.confusion_matrix(StubNet(), ds)
        assert matrix[:, 0].sum() == len(ds)
        assert matrix[:, 1:].sum() == 0

    def test_trace_consistency(self):
        net = nn.build_fcn(seed=1)
        ds = balanced_dataset()
        matrix = evaluate.confusion_matrix(net, ds)
        assert matrix.sum() == len(ds)
        assert evaluate.accuracy(net, ds) == pytest.approx(
            np.trace(matrix) / len(ds) * 100.0, abs=1e-9)


class TestEvaluatePair:
    def test_encoderless_cells_mirror(self):
        net = nn.build_fcn(seed=2)
        ds = balanced_dataset()
        report = evaluate.evaluate_pair(net, ds, ds)
        assert set(report.accuracy) == set(evaluate.CELLS)
        assert report.accuracy["source_with"] == report.accuracy["source_without"]
        np.testing.assert_array_equal(report.confusion["target_with"],
                                      report.confusion["target_without"])

    def test_bypass_invariant_to_encoder(self):
        ds = balanced_dataset()
        net = nn.build_fcn(seed=3)
        bare = evaluate.accuracy(net, ds, use_encoder=False)
        nn.build_encoder(net, seed=3)
        report = evaluate.evaluate_pair(net, ds, ds)
        assert report.accuracy["source_without"] == bare

    @pytest.mark.parametrize("build,n", [(nn.build_fcn, 600), (nn.build_cnn, 12)],
                             ids=["fcn", "cnn"])
    def test_confusions_equal_per_cell_passes(self, build, n):
        # 600 rows span two evaluation batches
        net = build(seed=9)
        nn.build_encoder(net, seed=9, noise_scale=0.5)
        source, target = balanced_dataset(n), balanced_dataset(n + 3)
        report = evaluate.evaluate_pair(net, source, target)
        for domain, ds in (("source", source), ("target", target)):
            for tag in ("without", "with"):
                want = evaluate.confusion_matrix(net, ds, use_encoder=tag == "with")
                np.testing.assert_array_equal(report.confusion[f"{domain}_{tag}"], want)
                assert report.n_examples[f"{domain}_{tag}"] == len(ds)

    @pytest.mark.parametrize("build", [nn.build_fcn, nn.build_cnn],
                             ids=["fcn", "cnn"])
    def test_empty_sets(self, build):
        # an empty set runs as one empty batch
        net = build(seed=2)
        nn.build_encoder(net, seed=2)
        empty = balanced_dataset(0)
        assert evaluate.feature_matrix(net, empty).shape == (0, net.split_dim)
        report = evaluate.evaluate_pair(net, empty, empty)
        for key in evaluate.CELLS:
            np.testing.assert_array_equal(report.confusion[key],
                                          np.zeros((10, 10), dtype=np.int64))
            assert report.n_examples[key] == 0

    def test_keeps_no_layer_cache(self, held_caches):
        net = nn.build_cnn(seed=5)
        nn.build_encoder(net, seed=5)
        ds = balanced_dataset(12)
        net.forward(ds.images, use_encoder=True)
        assert held_caches(net)
        evaluate.evaluate_pair(net, ds, ds)
        assert held_caches(net) == []
        net.forward(ds.images, use_encoder=True)
        evaluate.feature_matrix(net, ds)
        assert [cache for cache in held_caches(net) if cache.startswith("n1.")] == []
        evaluate.predictions(net, ds, use_encoder=True)
        assert held_caches(net) == []

    def test_cnn_peak_memory(self):
        # 150 images a domain in one 512-row batch: every conv unfolds
        # nn.CHUNK images at a time into one reused buffer and keeps
        # nothing, so the peak is about 39 MB (58 MB at 32 images a chunk);
        # caching each layer's columns for the whole batch reached 333 MB,
        # and kept 221 MB after the call
        net = nn.build_cnn(seed=6)
        source, target = balanced_dataset(150), balanced_dataset(150)
        tracemalloc.start()
        try:
            evaluate.evaluate_pair(net, source, target)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 120 * 2**20
        assert held < 2**20

    def test_round_trip_dict(self):
        net = nn.build_fcn(seed=4)
        ds = balanced_dataset()
        report = evaluate.evaluate_pair(net, ds, ds, metadata={"tag": "x"})
        again = evaluate.EvalReport.from_dict(report.to_dict())
        assert again.accuracy == report.accuracy
        assert again.metadata == report.metadata
        for key in report.confusion:
            np.testing.assert_array_equal(again.confusion[key],
                                          report.confusion[key])


class TestExportEmbeddings:
    def test_row_counts_and_absent_hft(self, tmp_path):
        net = nn.build_fcn(seed=5)
        source, target = balanced_dataset(30), balanced_dataset(20)
        paths = evaluate.export_embeddings(net, source, target, tmp_path)
        assert "hfT" not in paths
        assert len(open(paths["fS"]).read().splitlines()) == 30
        assert len(open(paths["fT"]).read().splitlines()) == 20

    def test_identity_encoder_matches_ft(self, tmp_path):
        net = nn.build_fcn(seed=6)
        nn.build_encoder(net, seed=6, noise_scale=0.0)
        source, target = balanced_dataset(10), balanced_dataset(10)
        paths = evaluate.export_embeddings(net, source, target, tmp_path)
        assert open(paths["fT"]).read() == open(paths["hfT"]).read()

    def test_reload_precision(self, tmp_path):
        net = nn.build_fcn(seed=7)
        source, target = balanced_dataset(8), balanced_dataset(8)
        paths = evaluate.export_embeddings(net, source, target, tmp_path)
        rows = [line.split(",") for line in open(paths["fS"]).read().splitlines()]
        loaded = np.array([[float(v) for v in row[1:]] for row in rows])
        exact = evaluate.feature_matrix(net, source)
        np.testing.assert_allclose(loaded, exact, rtol=1e-11)

    def test_n1_runs_once_per_set(self, tmp_path, monkeypatch):
        net = nn.build_fcn(seed=9)
        nn.build_encoder(net, seed=9)
        rows = []
        orig = nn.Network.forward_features
        monkeypatch.setattr(nn.Network, "forward_features", lambda net, batch:
                            rows.append(len(batch)) or orig(net, batch))
        source, target = balanced_dataset(30), balanced_dataset(20)
        paths = evaluate.export_embeddings(net, source, target, tmp_path)
        assert "hfT" in paths
        assert sum(rows) == len(source) + len(target)

    @pytest.mark.parametrize("n_target", [0, 600])
    def test_bytes_equal_per_batch_reference(self, tmp_path, n_target):
        # fT and hfT of a target set longer than one 512-row batch, and of
        # an empty one, which writes a lone newline per file
        net = nn.build_fcn(seed=10)
        nn.build_encoder(net, seed=10, noise_scale=0.1)
        source, target = balanced_dataset(20), balanced_dataset(n_target)
        paths = evaluate.export_embeddings(net, source, target, tmp_path)
        ft, hft = [], []
        for start in range(0, n_target, 512):
            feats = net.forward_features(target.images[start:start + 512])
            ft.extend(feats.reshape(len(feats), -1))
            for layer in net.encoder:
                feats = layer.forward(feats)
            hft.extend(feats.reshape(len(feats), -1))
        for name, want in (("fT", ft), ("hfT", hft)):
            text = "\n".join(",".join([str(int(label))] + [f"{v:.12g}" for v in row])
                             for label, row in zip(target.labels, want)) + "\n"
            # lists, so that a mismatch is reported without diffing the texts
            assert open(paths[name]).read().split("\n") == text.split("\n"), name

    def test_cap_is_stratified(self, tmp_path):
        net = nn.build_fcn(seed=8)
        source, target = balanced_dataset(40), balanced_dataset(40)
        paths = evaluate.export_embeddings(net, source, target, tmp_path, cap=20)
        labels = [int(line.split(",")[0])
                  for line in open(paths["fS"]).read().splitlines()]
        assert len(labels) == 20
        np.testing.assert_array_equal(np.bincount(labels, minlength=10),
                                      np.full(10, 2))


class FakeRecord:
    def __init__(self, method, strategy, cells):
        self.method = method
        self.strategy = strategy
        self.report = types.SimpleNamespace(accuracy=cells)


class TestRenderReport:
    def _cells(self, value):
        return {key: value for key in evaluate.CELLS}

    def test_single_record_layout(self):
        rec = FakeRecord("CLS+KL", "indirect", self._cells(30.2843))
        csv_text, txt = evaluate.render_report([rec])
        lines = csv_text.splitlines()
        assert len(lines) == 2
        assert lines[1] == "CLS+KL,indirect,30.28,30.28,30.28,30.28"
        assert "30.28" in txt and "30.2843" not in txt

    def test_row_count(self):
        records = [FakeRecord(f"m{i}", "-", self._cells(float(i))) for i in range(5)]
        csv_text, txt = evaluate.render_report(records)
        assert len(csv_text.splitlines()) == 6
        assert len(txt.splitlines()) == 6

    def test_files_written(self, tmp_path):
        rec = FakeRecord("Source only", "-", self._cells(91.91))
        csv_path, txt_path = evaluate.write_report([rec], tmp_path)
        assert "91.91" in open(csv_path).read()
        assert "91.91" in open(txt_path).read()
