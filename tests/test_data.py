import os
import stat
import struct
import sys
import threading

import numpy as np
import pytest

from lrsdag import data, glyphs, nn
from lrsdag.tensor_core import ShapeMismatch


def rasterize_reference(strokes, size, width, transform, offset):
    """The textbook distance field: (P, S, 2) arrays, norm, then minimum."""
    a, b = glyphs._segments(strokes, transform, offset)
    centers = (np.arange(size) + 0.5) / size
    gx, gy = np.meshgrid(centers, centers)
    pixels = np.stack([gx.ravel(), gy.ravel()], axis=1)
    ab = b - a
    denom = np.maximum((ab * ab).sum(axis=1), 1e-12)
    ap = pixels[:, None, :] - a[None]
    t = np.clip((ap * ab[None]).sum(axis=2) / denom[None], 0.0, 1.0)
    nearest = a[None] + t[:, :, None] * ab[None]
    dist = np.linalg.norm(pixels[:, None, :] - nearest, axis=2).min(axis=1)
    ink = np.clip((width - dist) / (0.6 * width), 0.0, 1.0)
    return ink.reshape(size, size)


def toy_dataset(n=60, seed=0, size=28):
    rng = np.random.default_rng(seed)
    images = rng.random((n, 1, size, size))
    labels = np.arange(n, dtype=np.int64) % 10
    return data.Dataset(images=images, labels=labels, name="toy", split="train")


class TestReadIdx:
    def test_hand_constructed_file(self, tmp_path):
        path = tmp_path / "t.idx"
        payload = struct.pack(">BBBB", 0, 0, 0x08, 3)
        payload += struct.pack(">III", 1, 2, 2)
        payload += bytes([0, 255, 128, 64])
        path.write_bytes(payload)
        out = data.read_idx(path)
        np.testing.assert_array_equal(
            out, np.array([[[0, 255, 128, 64]]]).reshape(1, 2, 2) / 255.0)

    def test_rescale_off_returns_bytes(self, tmp_path):
        path = tmp_path / "labels.idx"
        path.write_bytes(struct.pack(">BBBB", 0, 0, 0x08, 1)
                         + struct.pack(">I", 3) + bytes([7, 0, 9]))
        out = data.read_idx(path, rescale=False)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, [7, 0, 9])

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(data.TruncatedFile):
            data.read_idx(path)

    def test_truncated_dims(self, tmp_path):
        path = tmp_path / "dims.idx"
        path.write_bytes(struct.pack(">BBBB", 0, 0, 0x08, 3) + struct.pack(">I", 5))
        with pytest.raises(data.TruncatedFile):
            data.read_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "data.idx"
        path.write_bytes(struct.pack(">BBBB", 0, 0, 0x08, 1)
                         + struct.pack(">I", 10) + bytes([1, 2]))
        with pytest.raises(data.TruncatedFile):
            data.read_idx(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "magic.idx"
        path.write_bytes(struct.pack(">BBBB", 1, 0, 0x08, 1)
                         + struct.pack(">I", 1) + bytes([1]))
        with pytest.raises(data.BadMagic):
            data.read_idx(path)

    def test_unsupported_type(self, tmp_path):
        path = tmp_path / "float.idx"
        path.write_bytes(struct.pack(">BBBB", 0, 0, 0x0D, 1)
                         + struct.pack(">I", 1) + bytes(4))
        with pytest.raises(data.UnsupportedElementType):
            data.read_idx(path)


class TestWriteIdx:
    def test_round_trip_uint8(self, tmp_path):
        arr = np.random.default_rng(0).integers(0, 256, size=(4, 5, 6)).astype(np.uint8)
        path = tmp_path / "rt.idx"
        data.write_idx(path, arr)
        np.testing.assert_array_equal(data.read_idx(path, rescale=False), arr)

    def test_round_trip_quantized_floats(self, tmp_path):
        arr = np.random.default_rng(1).integers(0, 256, size=(3, 2)) / 255.0
        path = tmp_path / "rtf.idx"
        data.write_idx(path, arr)
        np.testing.assert_array_equal(data.read_idx(path), arr)

    def test_rejects_out_of_range_floats(self, tmp_path):
        with pytest.raises(data.DataError):
            data.write_idx(tmp_path / "bad.idx", np.array([0.0, 1.5]))


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            data.atomic_write_text(tmp_path / "report.txt", "x\n")
            nn.save_checkpoint(nn.build_fcn(seed=0), tmp_path / "model.npz")
        finally:
            os.umask(old)
        for name in ("report.txt", "model.npz"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode, name

    def test_threads_leave_umask_and_modes(self, tmp_path):
        """`atomic_open` reads the process-wide umask by setting it; rounds
        of eight threads writing 50 files each, switching as often as they
        can, leave it at 022 and every file at mode 0644.  Without the lock
        about one round in three breaks that, so 20 rounds all but always
        catch it."""
        old, interval = os.umask(0o022), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for r in range(20):
                def write(t):
                    for i in range(50):
                        data.atomic_write_text(tmp_path / f"{r}.{t}.{i}.txt", "x\n")

                threads = [threading.Thread(target=write, args=(t,)) for t in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert os.umask(0o022) == 0o022, r
        finally:
            sys.setswitchinterval(interval)
            os.umask(old)
        names = os.listdir(tmp_path)
        assert len(names) == 20 * 8 * 50
        assert {stat.S_IMODE(os.stat(tmp_path / n).st_mode) for n in names} == {0o644}


class TestPreprocess:
    def test_constant_one_maps_to_one(self):
        out = data.preprocess(np.ones((2, 1, 28, 28)))
        assert out.shape == (2, 1, 32, 32)
        np.testing.assert_array_equal(out, np.ones((2, 1, 32, 32)))

    def test_constant_half_maps_to_zero(self):
        out = data.preprocess(np.full((1, 1, 28, 28), 0.5))
        np.testing.assert_array_equal(out, np.zeros((1, 1, 32, 32)))

    def test_wrong_shape(self):
        with pytest.raises(ShapeMismatch):
            data.preprocess(np.ones((1, 1, 32, 32)))

    def test_resize_preserves_range(self):
        rng = np.random.default_rng(2)
        out = data.resize_bilinear(rng.random((3, 1, 28, 28)), 32, 32)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestSynMnist:
    def test_identity_params_bit_exact(self):
        ds = toy_dataset()
        identity = data.SynParams(flip_prob=0.0, shear_max_deg=0.0,
                                  brightness=(1.0, 1.0), contrast=(1.0, 1.0),
                                  seed=3)
        out = data.make_syn_mnist(ds, identity)
        np.testing.assert_array_equal(out.images, ds.images)
        np.testing.assert_array_equal(out.labels, ds.labels)

    def test_flip_only_is_involution(self):
        ds = toy_dataset()
        params = data.SynParams(flip_prob=1.0, shear_max_deg=0.0,
                                brightness=(1.0, 1.0), contrast=(1.0, 1.0), seed=4)
        once = data.make_syn_mnist(ds, params)
        twice = data.make_syn_mnist(once, params)
        assert not np.array_equal(once.images, ds.images)
        np.testing.assert_array_equal(twice.images, ds.images)

    def test_same_seed_bit_identical(self):
        ds = toy_dataset()
        params = data.SynParams(seed=5)
        a = data.make_syn_mnist(ds, params)
        b = data.make_syn_mnist(ds, params)
        np.testing.assert_array_equal(a.images, b.images)

    def test_labels_and_range_preserved(self):
        ds = toy_dataset()
        out = data.make_syn_mnist(ds, data.SynParams(seed=6))
        np.testing.assert_array_equal(out.labels, ds.labels)
        assert out.images.min() >= 0.0 and out.images.max() <= 1.0

    def test_param_validation(self):
        with pytest.raises(data.DataError):
            data.SynParams(flip_prob=1.5)
        with pytest.raises(data.DataError):
            data.SynParams(brightness=(0.0, 1.0))
        with pytest.raises(data.DataError):
            data.SynParams(shear_max_deg=90.5)
        with pytest.raises(data.DataError):
            data.SynParams(contrast=(0.7, float("inf")))

    @pytest.mark.parametrize("brightness, contrast", [
        ((0.7, 1e308), (0.7, 1.3)), ((0.7, 1e299), (0.7, 1e10))])
    def test_overflowing_ranges_rejected(self, brightness, contrast):
        with pytest.raises(data.DataError, match="overflows float64"):
            data.SynParams(brightness=brightness, contrast=contrast)

    def test_largest_accepted_ranges_stay_finite(self):
        # just inside the bound, no step of the jitter overflows
        hi = 0.5 * np.finfo(np.float64).max / (3.0 * data.MAX_IMAGE_PIXELS)
        params = data.SynParams(brightness=(hi, hi), contrast=(2.0, 2.0), seed=3)
        with np.errstate(all="raise"):
            out = data.make_syn_mnist(toy_dataset(n=4), params)
        assert np.all(np.isfinite(out.images))

    def test_shear_up_to_90_degrees(self):
        ds = toy_dataset(n=4)
        out = data.make_syn_mnist(ds, data.SynParams(shear_max_deg=90.0, seed=2))
        assert np.all(np.isfinite(out.images))


class TestSubsample:
    def test_full_fraction_is_permutation(self):
        ds = toy_dataset()
        out = data.subsample_labeled(ds, 1.0, seed=7)
        assert len(out) == len(ds)
        np.testing.assert_array_equal(np.sort(out.labels), np.sort(ds.labels))

    def test_tenth_is_stratified(self):
        ds = toy_dataset(n=600)
        out = data.subsample_labeled(ds, 0.1, seed=8)
        assert len(out) == 60
        np.testing.assert_array_equal(np.bincount(out.labels, minlength=10),
                                      np.full(10, 6))

    def test_unbalanced_within_one(self):
        labels = np.array([0] * 13 + [1] * 87, dtype=np.int64)
        ds = data.Dataset(images=np.zeros((100, 1, 4, 4)), labels=labels,
                          name="skew", split="train")
        out = data.subsample_labeled(ds, 0.5, seed=9)
        assert len(out) == 50
        counts = np.bincount(out.labels, minlength=2)
        assert abs(counts[0] - 6.5) <= 1 and abs(counts[1] - 43.5) <= 1

    def test_determinism(self):
        ds = toy_dataset()
        a = data.subsample_labeled(ds, 0.5, seed=10)
        b = data.subsample_labeled(ds, 0.5, seed=10)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_fraction_bounds(self):
        ds = toy_dataset()
        for bad in (0.0, -0.1, 1.01):
            with pytest.raises(data.FractionOutOfRange):
                data.subsample_labeled(ds, bad, seed=0)


class TestBatches:
    def test_sizes(self):
        ds = toy_dataset(n=10)
        sizes = [len(lbl) for _, lbl in data.batches(ds, 3)]
        assert sizes == [3, 3, 3, 1]

    def test_declaration_order_without_shuffle(self):
        ds = toy_dataset(n=7)
        seen = np.concatenate([lbl for _, lbl in data.batches(ds, 2)])
        np.testing.assert_array_equal(seen, ds.labels)

    def test_shuffle_covers_everything(self):
        ds = toy_dataset(n=20)
        seen = np.concatenate(
            [lbl for _, lbl in data.batches(ds, 6, shuffle=True, seed=1, epoch=0)])
        np.testing.assert_array_equal(np.sort(seen), np.sort(ds.labels))

    def test_shuffle_deterministic_per_epoch(self):
        ds = toy_dataset(n=20)

        def order(epoch):
            return np.concatenate(
                [lbl for _, lbl in data.batches(ds, 5, shuffle=True, seed=2,
                                                epoch=epoch)])

        np.testing.assert_array_equal(order(0), order(0))
        assert not np.array_equal(order(0), order(1))

    def test_bad_batch_size(self):
        with pytest.raises(data.DataError):
            list(data.batches(toy_dataset(), 0))


class TestSplitTrainVal:
    def test_sizes_and_disjointness(self):
        ds = toy_dataset(n=50, seed=3)
        # tag each example uniquely through the image payload
        images = ds.images.copy()
        images[:, 0, 0, 0] = np.arange(50)
        ds = data.Dataset(images=images, labels=ds.labels, name="toy", split="train")
        train, val = data.split_train_val(ds, 0.2, seed=11)
        assert len(train) + len(val) == 50 and len(val) == 10
        train_ids = set(train.images[:, 0, 0, 0].tolist())
        val_ids = set(val.images[:, 0, 0, 0].tolist())
        assert train_ids.isdisjoint(val_ids)
        assert train_ids | val_ids == set(range(50))

    def test_determinism(self):
        ds = toy_dataset(n=30)
        a_train, a_val = data.split_train_val(ds, 0.25, seed=12)
        b_train, b_val = data.split_train_val(ds, 0.25, seed=12)
        np.testing.assert_array_equal(a_train.images, b_train.images)
        np.testing.assert_array_equal(a_val.images, b_val.images)

    def test_fraction_bounds(self):
        for bad in (0.0, 1.0):
            with pytest.raises(data.FractionOutOfRange):
                data.split_train_val(toy_dataset(), bad, seed=0)


class TestGlyphCorpus:
    def test_shapes_and_balance(self):
        images, labels = glyphs.generate_digits(50, seed=0)
        assert images.shape == (50, 28, 28) and images.dtype == np.uint8
        np.testing.assert_array_equal(np.bincount(labels, minlength=10),
                                      np.full(10, 5))

    def test_determinism(self):
        a_img, a_lbl = glyphs.generate_digits(20, seed=1)
        b_img, b_lbl = glyphs.generate_digits(20, seed=1)
        np.testing.assert_array_equal(a_img, b_img)
        np.testing.assert_array_equal(a_lbl, b_lbl)

    def test_corpus_round_trip(self, tmp_path):
        paths = glyphs.write_corpus(tmp_path, n_train=30, n_test=10, seed=2)
        ds = data.load_idx_dataset(*paths["train"], name="demo", split="train")
        assert len(ds) == 30
        assert ds.images.shape == (30, 1, 28, 28)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


class TestRasterizer:
    """glyphs._rasterize against the textbook form, bit for bit."""

    @staticmethod
    def jitters():
        # the corners of render_digit's ranges, then seeded draws inside them
        for angle, scale, offset, width in (
                (-0.20, (0.82, 0.82), (-0.06, -0.06), 0.045),
                (0.20, (1.10, 1.10), (0.06, 0.06), 0.075),
                (0.20, (0.82, 1.10), (-0.06, 0.06), 0.045),
                (-0.20, (1.10, 0.82), (0.06, -0.06), 0.075)):
            yield angle, np.array(scale), np.array(offset), width
        rng = np.random.default_rng(11)
        for _ in range(6):
            yield (rng.uniform(-0.20, 0.20), rng.uniform(0.82, 1.10, size=2),
                   rng.uniform(-0.06, 0.06, size=2), rng.uniform(0.045, 0.075))

    @pytest.mark.parametrize("digit", range(10))
    def test_equals_reference(self, digit):
        for angle, scale, offset, width in self.jitters():
            rot = np.array([[np.cos(angle), -np.sin(angle)],
                            [np.sin(angle), np.cos(angle)]])
            args = (glyphs.GLYPHS[digit], 28, width, rot @ np.diag(scale), offset)
            np.testing.assert_array_equal(glyphs._rasterize(*args),
                                          rasterize_reference(*args))

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_corpus_bytes_equal_reference(self, seed, monkeypatch):
        images, labels = glyphs.generate_digits(60, seed)
        monkeypatch.setattr(glyphs, "_rasterize", rasterize_reference)
        ref_images, ref_labels = glyphs.generate_digits(60, seed)
        assert images.tobytes() == ref_images.tobytes()
        np.testing.assert_array_equal(labels, ref_labels)

    def test_repeat_calls_leave_grid_untouched(self):
        args = (glyphs.GLYPHS[8], 28, 0.06, np.eye(2), np.zeros(2))
        first = glyphs._rasterize(*args)
        np.testing.assert_array_equal(glyphs._rasterize(*args), first)
        np.testing.assert_array_equal(glyphs._rasterize(*args),
                                      rasterize_reference(*args))
