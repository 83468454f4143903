"""Dataset ingestion, preprocessing, synthetic-shift generation, batching.

Images travel through the pipeline as float64 arrays shaped N x 1 x H x W.
Raw inputs arrive in [0, 1]; the synthetic target generator operates in
that range, and `preprocess` maps to [-1, 1] for training.  All random
choices are seeded, so two runs with equal configuration produce
bit-identical datasets.
"""

import contextlib
import math
import os
import struct
import tempfile
import threading
from dataclasses import dataclass, replace

import numpy as np

from .seeding import derive_rng
from .tensor_core import ShapeMismatch

IDX_UBYTE = 0x08

# make_syn_mnist sums an image's pixels for the contrast step's mean; no
# image it is given has more pixels than this
MAX_IMAGE_PIXELS = 2 ** 32

# held while `atomic_open` reads the process's umask, which means setting it
_UMASK_LOCK = threading.Lock()


class DataError(Exception):
    """Base class for dataset failures."""


class BadMagic(DataError):
    """File does not start with a valid IDX magic number."""


class TruncatedFile(DataError):
    """File ends before the header or payload is complete."""


class UnsupportedElementType(DataError):
    """IDX element type other than unsigned byte."""


class FractionOutOfRange(DataError):
    """Fraction argument outside its valid interval."""


@dataclass(frozen=True)
class Dataset:
    """An immutable split of images and class labels."""

    images: np.ndarray
    labels: np.ndarray
    name: str
    split: str

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels")
        if self.images.ndim != 4 or self.images.shape[1] != 1:
            raise DataError(f"expected N x 1 x H x W images, got {self.images.shape}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise DataError("labels must lie in [0, 10)")
        if not np.all(np.isfinite(self.images)):
            raise DataError("images contain non-finite values")

    def __len__(self):
        return self.images.shape[0]

    def select(self, indices, split=None):
        return replace(
            self,
            images=self.images[indices],
            labels=self.labels[indices],
            split=self.split if split is None else split,
        )


@dataclass(frozen=True)
class SynParams:
    """Photometric and geometric jitter ranges for the synthetic target."""

    flip_prob: float = 0.5
    shear_max_deg: float = 15.0
    brightness: tuple = (0.7, 1.3)
    contrast: tuple = (0.7, 1.3)
    seed: int = 0

    def __post_init__(self):
        values = (self.flip_prob, self.shear_max_deg, *self.brightness,
                  *self.contrast)
        if not all(math.isfinite(v) for v in values):
            raise DataError(f"jitter parameters must be finite, got {self}")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise DataError(f"flip_prob must be in [0, 1], got {self.flip_prob}")
        if not 0.0 <= self.shear_max_deg <= 90.0:
            raise DataError(
                f"shear_max_deg must be in [0, 90], got {self.shear_max_deg}")
        for label, (lo, hi) in (("brightness", self.brightness),
                                ("contrast", self.contrast)):
            if not 0 < lo <= hi:
                raise DataError(f"{label} range must satisfy 0 < lo <= hi")
        # pixels start in [0, 1]; after brightness b they lie in [0, b], the
        # mean sums up to MAX_IMAGE_PIXELS of them, and contrast c puts a
        # pixel at most b + b * c from zero, so every step stays under
        # MAX_IMAGE_PIXELS * b * (1 + c)
        worst = MAX_IMAGE_PIXELS * self.brightness[1] * (1.0 + self.contrast[1])
        if not worst <= np.finfo(np.float64).max:
            raise DataError(f"brightness_hi {self.brightness[1]!r} with contrast_hi "
                            f"{self.contrast[1]!r} overflows float64 pixel values")


@contextlib.contextmanager
def atomic_open(path):
    """A binary file handle on a temporary name in `path`'s directory,
    renamed to `path` when the block ends, so readers never observe a
    partial file; if the block raises, the temporary file is removed and
    `path` is left as it was.  The file gets the mode `open` would give
    it under the current umask."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    with _UMASK_LOCK:
        umask = os.umask(0)
        os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as fh:
            os.chmod(tmp, 0o666 & ~umask)  # mkstemp made it 0600
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def atomic_write_bytes(path, payload):
    """Write `payload` to `path` through `atomic_open`."""
    with atomic_open(path) as fh:
        fh.write(payload)


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


def read_idx(path, rescale=True):
    """Read a big-endian IDX file of unsigned bytes.

    With rescale (the default) byte values map to floats in [0, 1];
    otherwise the raw uint8 array is returned, which is what label
    files need.

    Raises:
        BadMagic: first two magic bytes are nonzero.
        UnsupportedElementType: element type is not unsigned byte.
        TruncatedFile: header or payload is shorter than declared.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise TruncatedFile(f"{path}: {len(raw)} bytes is too short for a header")
    zero_a, zero_b, el_type, rank = struct.unpack(">BBBB", raw[:4])
    if zero_a != 0 or zero_b != 0:
        raise BadMagic(f"{path}: magic starts {zero_a:#x} {zero_b:#x}, expected zeros")
    if el_type != IDX_UBYTE:
        raise UnsupportedElementType(f"{path}: element type {el_type:#x}")
    header_end = 4 + 4 * rank
    if len(raw) < header_end:
        raise TruncatedFile(f"{path}: header declares rank {rank} but file is short")
    dims = struct.unpack(f">{rank}I", raw[4:header_end])
    count = int(np.prod(dims, dtype=np.int64)) if rank else 1
    if len(raw) < header_end + count:
        raise TruncatedFile(
            f"{path}: expected {count} data bytes, found {len(raw) - header_end}")
    data = np.frombuffer(raw[header_end:header_end + count], dtype=np.uint8)
    data = data.reshape(dims)
    if rescale:
        return data.astype(np.float64) / 255.0
    return data.copy()


def write_idx(path, array):
    """Write an array as an unsigned-byte IDX file.

    Accepts uint8 directly; float arrays must lie in [0, 1] and are
    quantized to bytes, making write-then-read the identity for
    byte-quantized values.
    """
    arr = np.asarray(array)
    if arr.dtype != np.uint8:
        if arr.size and (arr.min() < 0 or arr.max() > 1):
            raise DataError("float data must lie in [0, 1] before quantization")
        arr = np.round(arr * 255.0).astype(np.uint8)
    header = struct.pack(">BBBB", 0, 0, IDX_UBYTE, arr.ndim)
    header += b"".join(struct.pack(">I", dim) for dim in arr.shape)
    atomic_write_bytes(path, header + arr.tobytes())


def resize_bilinear(images, out_h, out_w):
    """Bilinear resize with the half-pixel sampling convention."""
    n, c, h, w = images.shape

    def axis_coords(out_len, in_len):
        src = (np.arange(out_len) + 0.5) * (in_len / out_len) - 0.5
        low = np.floor(src)
        frac = src - low
        i0 = np.clip(low.astype(np.int64), 0, in_len - 1)
        i1 = np.clip(i0 + 1, 0, in_len - 1)
        return i0, i1, frac

    y0, y1, fy = axis_coords(out_h, h)
    x0, x1, fx = axis_coords(out_w, w)
    rows = images[:, :, y0, :] * (1.0 - fy)[:, None] + images[:, :, y1, :] * fy[:, None]
    return rows[:, :, :, x0] * (1.0 - fx) + rows[:, :, :, x1] * fx


def preprocess(raw):
    """Resize 28 x 28 images to 32 x 32 and map [0, 1] to [-1, 1]."""
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[1] != 1 or arr.shape[2:] != (28, 28):
        raise ShapeMismatch(f"expected N x 1 x 28 x 28, got {arr.shape}")
    resized = resize_bilinear(arr, 32, 32)
    return (resized - 0.5) / 0.5


def shear_horizontal(image, angle_deg):
    """Shear one C x H x W image along x, bilinear with zero fill."""
    c, h, w = image.shape
    offset = math.tan(math.radians(angle_deg)) * (np.arange(h) - (h - 1) / 2.0)
    src = np.arange(w)[None, :] + offset[:, None]
    low = np.floor(src)
    frac = src - low
    x0 = low.astype(np.int64)
    rows = np.arange(h)[:, None]

    def gather(xi):
        inside = (xi >= 0) & (xi < w)
        return image[:, rows, np.clip(xi, 0, w - 1)] * inside

    return gather(x0) * (1.0 - frac) + gather(x0 + 1) * frac


def make_syn_mnist(ds, params):
    """Apply seeded flip, shear, brightness, and contrast jitter per image.

    Each distortion is skipped entirely when its drawn parameter is the
    identity value, so identity parameter ranges reproduce the input
    bit-exactly.  The random stream consumes one draw per distortion per
    image regardless, keeping decisions aligned across parameter sets
    sharing a seed.  Labels pass through untouched.
    """
    rng = derive_rng(params.seed, "syn")
    out = np.empty_like(ds.images)
    for i in range(len(ds)):
        img = ds.images[i]
        do_flip = rng.random() < params.flip_prob
        angle = rng.uniform(-params.shear_max_deg, params.shear_max_deg)
        bright = rng.uniform(*params.brightness)
        contrast = rng.uniform(*params.contrast)
        if do_flip:
            img = img[:, :, ::-1]
        if angle != 0.0:
            img = shear_horizontal(img, angle)
        if bright != 1.0:
            img = img * bright
        if contrast != 1.0:
            mean = img.mean()
            img = mean + (img - mean) * contrast
        out[i] = np.clip(img, 0.0, 1.0)
    return replace(ds, images=out, name=f"{ds.name}-syn")


def check_subsample_fraction(fraction):
    if not 0.0 < fraction <= 1.0:
        raise FractionOutOfRange(f"subsample fraction must be in (0, 1], got {fraction}")


def check_val_fraction(val_fraction):
    if not 0.0 < val_fraction < 1.0:
        raise FractionOutOfRange(f"val_fraction must be in (0, 1), got {val_fraction}")


def subsample_labeled(ds, fraction, seed):
    """Keep floor(fraction * N) examples, stratified by class.

    Per-class quotas follow largest-remainder apportionment, so each
    class count is within one example of its exact proportional share.

    Raises:
        FractionOutOfRange: unless 0 < fraction <= 1.
    """
    check_subsample_fraction(fraction)
    total = int(math.floor(fraction * len(ds) + 1e-9))
    classes, counts = np.unique(ds.labels, return_counts=True)
    ideal = fraction * counts
    base = np.floor(ideal + 1e-9).astype(np.int64)
    quotas = base.copy()
    leftover = total - int(base.sum())
    if leftover > 0:
        order = np.lexsort((classes, -(ideal - base)))
        quotas[order[:leftover]] += 1

    rng = derive_rng(seed, "subsample")
    chosen = []
    for cls, quota in zip(classes, quotas):
        members = np.flatnonzero(ds.labels == cls)
        chosen.append(rng.choice(members, size=quota, replace=False))
    merged = rng.permutation(np.concatenate(chosen))
    return ds.select(merged)


def batches(ds, batch_size, shuffle=False, seed=0, epoch=0):
    """Yield (images, labels) covering the dataset once.

    `ds` is a Dataset or anything with its `images`, `labels` and
    length, such as the N1 features of one.  The shuffle order is a pure
    function of (seed, epoch); the last batch may be short.
    """
    if batch_size < 1:
        raise DataError(f"batch_size must be positive, got {batch_size}")
    order = np.arange(len(ds))
    if shuffle:
        order = derive_rng(seed, "batches", epoch).permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        sel = order[start:start + batch_size]
        yield ds.images[sel], ds.labels[sel]


def split_train_val(ds, val_fraction, seed):
    """Split into disjoint train/val subsets, deterministic given seed."""
    check_val_fraction(val_fraction)
    perm = derive_rng(seed, "split").permutation(len(ds))
    n_val = int(math.floor(val_fraction * len(ds) + 1e-9))
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    return ds.select(train_idx, split="train"), ds.select(val_idx, split="val")


def idx_pair(directory, stem):
    """The images and labels IDX paths of the pair `stem` in `directory`."""
    return (os.path.join(directory, f"{stem}-images.idx"),
            os.path.join(directory, f"{stem}-labels.idx"))


def load_idx_dataset(images_path, labels_path, name, split):
    """Build a Dataset from an images/labels IDX file pair."""
    images = read_idx(images_path)
    if images.ndim == 3:
        images = images[:, None, :, :]
    labels = read_idx(labels_path, rescale=False).astype(np.int64)
    return Dataset(images=images, labels=labels, name=name, split=split)
