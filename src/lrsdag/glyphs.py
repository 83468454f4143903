"""Procedural digit images for self-contained demos and tests.

Each class 0-9 is drawn from stroke polylines in a unit box, jittered
per example (rotation, anisotropic scale, translation, stroke width),
rasterized through a distance field, and quantized to bytes.  The
output mimics the handwritten-digit IDX layout, so the full pipeline
can run without any external download.
"""

import functools

import numpy as np

from . import data
from .seeding import derive_rng


def _arc(cx, cy, rx, ry, deg_from, deg_to, n=28):
    t = np.radians(np.linspace(deg_from, deg_to, n))
    return np.stack([cx + rx * np.cos(t), cy + ry * np.sin(t)], axis=1)


def _line(*points):
    return np.asarray(points, dtype=np.float64)


def _glyph_strokes():
    return {
        0: [_arc(0.50, 0.50, 0.26, 0.36, 0, 360)],
        1: [_line((0.35, 0.30), (0.52, 0.14), (0.52, 0.86)),
            _line((0.38, 0.86), (0.66, 0.86))],
        2: [np.concatenate([_arc(0.50, 0.33, 0.22, 0.20, 180, 355),
                            _line((0.71, 0.35), (0.30, 0.84), (0.73, 0.84))])],
        3: [_arc(0.45, 0.32, 0.21, 0.18, 215, 450),
            _arc(0.45, 0.66, 0.22, 0.19, 270, 495)],
        4: [_line((0.60, 0.14), (0.24, 0.60), (0.80, 0.60)),
            _line((0.60, 0.14), (0.60, 0.86))],
        5: [_line((0.70, 0.16), (0.32, 0.16), (0.31, 0.46)),
            _arc(0.47, 0.63, 0.22, 0.20, 250, 460)],
        6: [_line((0.62, 0.13), (0.48, 0.30), (0.36, 0.52), (0.31, 0.66)),
            _arc(0.49, 0.66, 0.19, 0.17, 0, 360)],
        7: [_line((0.28, 0.16), (0.74, 0.16), (0.42, 0.86))],
        8: [_arc(0.50, 0.32, 0.18, 0.17, 0, 360),
            _arc(0.50, 0.67, 0.21, 0.185, 0, 360)],
        9: [_arc(0.51, 0.36, 0.20, 0.185, 0, 360),
            _line((0.71, 0.36), (0.69, 0.60), (0.58, 0.86))],
    }


GLYPHS = _glyph_strokes()


def _segments(strokes, transform, offset):
    starts, ends = [], []
    for poly in strokes:
        pts = (poly - 0.5) @ transform.T + 0.5 + offset
        starts.append(pts[:-1])
        ends.append(pts[1:])
    return np.concatenate(starts), np.concatenate(ends)


@functools.lru_cache(maxsize=8)
def _pixel_grid(size):
    """Read-only x and y coordinates of the P pixel centres, row-major."""
    centers = (np.arange(size) + 0.5) / size
    px = np.tile(centers, size)
    py = np.repeat(centers, size)
    px.flags.writeable = False
    py.flags.writeable = False
    return px, py


def _rasterize(strokes, size, width, transform, offset):
    """Ink of each pixel from its distance to the nearest stroke segment.

    The pixel's projection onto each segment is clipped to the segment,
    and the distance to it gives ink 1 within 0.4 * width, falling
    linearly to 0 at width.  x and y are kept as separate (S, P) arrays,
    segments by pixels, and every element sees the operations of the
    textbook form ((P, S, 2) arrays, `np.linalg.norm`, then the minimum)
    in the same order, so the ink is the same bit for bit.  The square
    root is taken once per pixel, after the minimum over segments:
    `sqrt` is correctly rounded and monotone, so sqrt(min(d2)) equals
    min(sqrt(d2)) exactly.
    """
    a, b = _segments(strokes, transform, offset)
    ax, ay = a[:, :1], a[:, 1:]
    abx, aby = b[:, :1] - ax, b[:, 1:] - ay
    denom = np.maximum(abx * abx + aby * aby, 1e-12)
    px, py = _pixel_grid(size)

    dx = px - ax
    dy = py - ay
    t = dx * abx
    t += dy * aby
    t /= denom
    np.clip(t, 0.0, 1.0, out=t)
    # squared offset of each pixel from its nearest point a + t * ab
    for d, p, a0, ab in ((dx, px, ax, abx), (dy, py, ay, aby)):
        np.multiply(t, ab, out=d)
        d += a0
        np.subtract(p, d, out=d)
        d *= d
    dx += dy
    dist = np.sqrt(dx.min(axis=0))

    ink = np.subtract(width, dist, out=dist)
    ink /= 0.6 * width
    np.clip(ink, 0.0, 1.0, out=ink)
    return ink.reshape(size, size)


def render_digit(digit, rng, size=28):
    """Rasterize one jittered example of the given digit class."""
    angle = rng.uniform(-0.20, 0.20)
    scale = rng.uniform(0.82, 1.10, size=2)
    offset = rng.uniform(-0.06, 0.06, size=2)
    width = rng.uniform(0.045, 0.075)
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    transform = rot @ np.diag(scale)
    img = _rasterize(GLYPHS[digit], size, width, transform, offset)
    img += rng.normal(0.0, 0.03, size=img.shape)
    return np.clip(img, 0.0, 1.0, out=img)


def generate_digits(n, seed, size=28):
    """Produce n byte-quantized digit images with balanced labels."""
    rng = derive_rng(seed, "glyphs")
    labels = rng.permutation(np.arange(n, dtype=np.int64) % 10)
    images = np.empty((n, size, size), dtype=np.uint8)
    for i, digit in enumerate(labels):
        images[i] = np.round(render_digit(int(digit), rng, size) * 255.0)
    return images, labels


def write_corpus(out_dir, n_train, n_test, seed):
    """Write train/test IDX pairs of generated digits into out_dir."""
    paths = {}
    for split, count, tag in (("train", n_train, 0), ("test", n_test, 1)):
        images, labels = generate_digits(count, seed + tag)
        image_path, label_path = data.idx_pair(out_dir, split)
        data.write_idx(image_path, images)
        data.write_idx(label_path, labels.astype(np.uint8))
        paths[split] = (image_path, label_path)
    return paths
