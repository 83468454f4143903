"""Dense float64 tensor primitives with hand-written gradients.

Tensors are plain numpy float64 arrays (row-major). The operations return
what NumPy computes, non-finite values included; only `check_finite` raises
on them (NonFiniteValue), and `nn.Network` applies it to the logits of every
forward pass. Reduction orders are fixed so repeated runs on the same
machine are bit-identical.
"""

import numpy as np


class TensorError(Exception):
    pass


class ShapeMismatch(TensorError):
    pass


class LabelOutOfRange(TensorError):
    pass


class NonFiniteValue(TensorError):
    pass


def check_finite(x, op="tensor op"):
    if not np.all(np.isfinite(x)):
        raise NonFiniteValue(f"{op} produced non-finite values")


def im2col(x, kh, kw, stride, padding, out, padded=None):
    """Unfold the sliding windows of x (B, C, H, W) into `out`, any
    (C*kh*kw, B, h_out*w_out) array, a strided slice of a larger one
    included.  The columns are k-major: one row block per (channel,
    kernel row, kernel col), one row per image, one column per output
    pixel in row-major order.  `out.transpose(1, 0, 2)[b]` is image b's
    (C*kh*kw, h_out*w_out) matrix, which a (c_out, C*kh*kw) weight
    matrix turns into its output in (c_out, h_out, w_out) order.

    With padding, x is copied into the interior of `padded`, a
    (B, C, H+2p, W+2p) array whose border must hold zeros and is never
    written, or into a new zeroed one when it is None.
    """
    if padding:
        b, c, h, w = x.shape
        if padded is None:
            padded = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride, :, :]
    b, c, h_out, w_out = win.shape[:4]
    # copy=False: NumPy raises rather than write into a temporary copy
    out.reshape(c, kh, kw, b, h_out, w_out, copy=False)[...] = \
        win.transpose(1, 4, 5, 0, 2, 3)


def col2im(cols, x_shape, kh, kw, stride, padding, out=None):
    """Scatter-add column gradients onto the input grid (adjoint of `im2col`).

    cols: (B, C*kh*kw, h_out*w_out), image-major: `im2col`'s layout with
    its first two axes swapped, as one GEMM per image produces it.
    Overlapping windows accumulate. For each kernel offset (i, j), in a
    fixed row-major loop order, the contiguous (h_out, w_out) planes of
    every (B, C) are added onto the strided input positions that offset
    reads.  The padded grid is `out`, a (B, C, H+2p, W+2p) array zeroed
    here, or a new one when it is None; the input's part of it is
    returned.
    """
    b, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    h_out = (hp - kh) // stride + 1
    w_out = (wp - kw) // stride + 1
    if out is None:
        xp = np.zeros((b, c, hp, wp), dtype=np.float64)
    else:
        xp = out
        xp.fill(0.0)
    cols6 = cols.reshape(b, c, kh, kw, h_out, w_out)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride] += \
                cols6[:, :, i, j]
    if padding:
        return xp[:, :, padding:hp - padding, padding:wp - padding]
    return xp


def softmax(v):
    """Stable softmax over the last axis; each slice sums to 1."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(v):
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy(logits, labels):
    """Mean over the batch of -log softmax(logits)[label]."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeMismatch(f"expected logits of shape (B, c), got {logits.shape}")
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeMismatch(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise LabelOutOfRange(f"labels must lie in [0, {c})")
    lsm = log_softmax(logits)
    return float(-lsm[np.arange(n), labels].mean())


def cross_entropy_grad(logits, labels):
    """Gradient of cross_entropy w.r.t. the logits: (softmax - onehot) / B."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n = logits.shape[0]
    g = softmax(logits)
    g[np.arange(n), labels] -= 1.0
    return g / n
