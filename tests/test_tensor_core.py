import math

import numpy as np
import pytest

from lrsdag import nn
from lrsdag import tensor_core as tc

from gradcheck import grad_check


def conv(x, kernels, stride=1, padding=0):
    """nn.Conv2d with the given kernels and zero bias on a (B, C, H, W) batch."""
    c_out, c_in, kh, kw = kernels.shape
    layer = nn.Conv2d(c_in, c_out, kh, kw, stride=stride, padding=padding)
    layer.weight.value[:] = kernels
    return layer.forward(x)


class TestConv2d:
    """nn.Conv2d.forward, the one convolution, built on im2col."""

    def test_identity_kernel_exact(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 3, 5, 7))
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        np.testing.assert_array_equal(conv(x, k, stride=1, padding=0), x)

    def test_hand_convolution(self):
        x = np.ones((1, 1, 3, 3))
        k = np.ones((1, 1, 2, 2))
        out = conv(x, k, stride=1, padding=0)
        np.testing.assert_allclose(out, np.full((1, 1, 2, 2), 4.0))

    def test_output_shape_formula(self):
        x = np.zeros((1, 1, 32, 32))
        k = np.zeros((4, 1, 3, 3))
        assert conv(x, k, stride=1, padding=1).shape == (1, 4, 32, 32)
        assert conv(x, k, stride=2, padding=1).shape == (1, 4, 16, 16)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 2, 6, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        full = conv(x, k, stride=2, padding=1)
        for i in range(4):
            np.testing.assert_array_equal(full[i:i + 1],
                                          conv(x[i:i + 1], k, stride=2, padding=1))


def conv_reference(x, w, b, stride, padding, dout):
    """Direct nested-loop cross-correlation: (output, dx, dW, db)."""
    n, _, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, h_out, w_out))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(n):
        for o in range(c_out):
            for r in range(h_out):
                for c in range(w_out):
                    hs = slice(r * stride, r * stride + kh)
                    ws = slice(c * stride, c * stride + kw)
                    patch = xp[i, :, hs, ws]
                    out[i, o, r, c] = np.sum(patch * w[o]) + b[o]
                    dxp[i, :, hs, ws] += dout[i, o, r, c] * w[o]
                    dw[o] += dout[i, o, r, c] * patch
    dx = dxp[:, :, padding:padding + h, padding:padding + wd]
    return out, dx, dw, dout.sum(axis=(0, 2, 3))


class TestConv2dReference:
    """nn.Conv2d against the nested loops on shapes the CNN never uses.

    A 2x3 kernel on a 7x10 map: a kh/kw or h_out/w_out mix-up in the column
    layout changes values or shapes here, where square 3x3 layers cannot
    tell. With stride 2 and no padding the last row and column are skipped.
    """

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_forward_and_gradients(self, stride, padding):
        rng = np.random.default_rng(10 + 2 * stride + padding)
        layer = nn.Conv2d(3, 4, 2, 3, stride=stride, padding=padding, rng=rng)
        layer.bias.value[:] = rng.normal(size=4)
        x = rng.normal(size=(2, 3, 7, 10))
        out = layer.forward(x)
        dout = rng.normal(size=out.shape)
        dx = layer.backward(dout)
        ref = conv_reference(x, layer.weight.value, layer.bias.value,
                             stride, padding, dout)
        got = (out, dx, layer.weight.grad, layer.bias.grad)
        for name, g, r in zip(("out", "dx", "dW", "db"), got, ref):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12, err_msg=name)


def image_major_conv(x, w, b, stride, padding, dout):
    """(output, dx, dW, db) by the image-major im2col formula that Conv2d
    used before its columns went k-major: (B, K, Ho*Wo) columns, one
    `weight @ cols[b]` GEMM per image, the weight gradient against a
    transposed copy of every column, and `col2im(W.T @ dmat)`."""
    n = x.shape[0]
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    h_out, w_out = win.shape[2:4]
    cols = np.ascontiguousarray(
        win.transpose(0, 1, 4, 5, 2, 3).reshape(n, -1, h_out * w_out))
    k = cols.shape[1]
    weight = w.reshape(c_out, k)
    out = (weight @ cols).reshape(n, c_out, h_out, w_out)
    out += b[None, :, None, None]
    dmat = dout.reshape(n, c_out, -1)
    dw = (dmat.transpose(1, 0, 2).reshape(c_out, -1)
          @ cols.transpose(1, 0, 2).reshape(k, -1).T).reshape(w.shape)
    dx = tc.col2im(weight.T @ dmat, x.shape, kh, kw, stride, padding)
    return out, dx, dw, dout.sum(axis=(0, 2, 3))


class TestConv2dBits:
    """Conv2d on k-major columns gives the bytes of the image-major formula:
    the same GEMMs over the same values, only without the column copy."""

    @pytest.mark.parametrize("batch", [1, 32, 33])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_equals_image_major_formula(self, batch, stride, padding):
        rng = np.random.default_rng(100 * batch + 10 * stride + padding)
        # 64 input channels: K = 576 columns, as in the CNN's widest layer
        layer = nn.Conv2d(64, 8, 3, 3, stride=stride, padding=padding, rng=rng)
        layer.bias.value[:] = rng.normal(size=8)
        x = rng.normal(size=(batch, 64, 9, 9))
        out = layer.forward(x)
        dout = rng.normal(size=out.shape)
        dx = layer.backward(dout)
        ref = image_major_conv(x, layer.weight.value, layer.bias.value,
                               stride, padding, dout)
        got = (out, dx, layer.weight.grad, layer.bias.grad)
        for name, g, r in zip(("out", "dx", "dW", "db"), got, ref):
            assert g.shape == r.shape and g.tobytes() == r.tobytes(), name
        # the chunked path: no columns kept, in inference and when frozen
        assert layer.forward(x, keep=False).tobytes() == ref[0].tobytes()
        layer.frozen = True
        assert layer.forward(x).tobytes() == ref[0].tobytes()
        assert layer.backward(dout).tobytes() == ref[1].tobytes()


def fresh_columns(x, kh, kw, stride, padding):
    """im2col's columns for x in a fresh (C*kh*kw, B, h_out*w_out) array."""
    _, c, h, w = x.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    cols = np.full((c * kh * kw, len(x), h_out * w_out), np.nan)
    tc.im2col(x, kh, kw, stride, padding, cols)
    return cols


class TestIm2col:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_matches_np_pad_reference(self, stride, padding):
        """The zero-buffer padding gives the columns of an np.pad'ed input."""
        x = np.random.default_rng(20 + padding).normal(size=(2, 3, 7, 10))
        cols = fresh_columns(x, 2, 3, stride, padding)
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (2, 3), axis=(2, 3))
        win = win[:, :, ::stride, ::stride]
        h_out, w_out = win.shape[2:4]
        ref = win.transpose(1, 4, 5, 0, 2, 3).reshape(3 * 2 * 3, 2, h_out * w_out)
        np.testing.assert_array_equal(cols, ref)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_writes_into_a_strided_slice(self, stride, padding):
        """Unfolded into images 3..5 of a wider array, the columns are the
        bytes of a fresh array's, and every other column is untouched."""
        x = np.random.default_rng(30 + stride).normal(size=(3, 2, 6, 5))
        ref = fresh_columns(x, 3, 3, stride, padding)
        wide = np.random.default_rng(31).normal(size=(18, 8, ref.shape[2]))
        before = wide.copy()
        tc.im2col(x, 3, 3, stride, padding, wide[:, 3:6])
        assert wide[:, 3:6].tobytes() == ref.tobytes()
        others = np.r_[0:3, 6:8]
        assert wide[:, others].tobytes() == before[:, others].tobytes()


class TestSoftmax:
    def test_equal_logits_uniform(self):
        out = tc.softmax(np.full(5, 3.7))
        np.testing.assert_allclose(out, np.full(5, 0.2), atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(3, 8))
        np.testing.assert_allclose(tc.softmax(v + 123.456), tc.softmax(v), atol=1e-12)

    def test_closed_form(self):
        out = tc.softmax(np.array([0.0, math.log(3.0)]))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)

    def test_sums_to_one_and_open_interval(self):
        rng = np.random.default_rng(5)
        for k in (2, 17, 256, 8192):
            v = rng.normal(scale=10.0, size=(4, k))
            out = tc.softmax(v)
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(out > 0) and np.all(out < 1)


class TestCrossEntropy:
    def test_uniform_prediction(self):
        logits = np.zeros((3, 10))
        assert tc.cross_entropy(logits, np.array([0, 5, 9])) == pytest.approx(math.log(10))

    def test_confident_correct(self):
        logits = np.zeros((2, 4))
        logits[0, 1] = logits[1, 2] = 1e4
        assert tc.cross_entropy(logits, np.array([1, 2])) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form(self):
        logits = np.array([[0.0, math.log(3.0)]])
        got = tc.cross_entropy(logits, np.array([0]))
        assert got == pytest.approx(-math.log(0.25), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(tc.LabelOutOfRange):
            tc.cross_entropy(np.zeros((1, 3)), np.array([3]))

    def test_strictly_positive(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(5, 7))
        assert tc.cross_entropy(logits, rng.integers(0, 7, size=5)) > 0


class TestGradCheck:
    """The finite-difference checker of tests/gradcheck.py, which the layer,
    loss and acceptance tests use."""

    def test_linear_map(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(6, 4))
        r = rng.normal(size=6)

        def fn(x):
            out = w @ x
            return float(r @ out), w.T @ r

        err = grad_check(fn, rng.normal(size=4), eps=1e-5)
        assert err < 1e-6

    def test_softmax_cross_entropy_composite(self):
        rng = np.random.default_rng(8)
        labels = np.array([2, 0, 1])

        def fn(logits):
            return tc.cross_entropy(logits, labels), tc.cross_entropy_grad(logits, labels)

        err = grad_check(fn, rng.normal(size=(3, 4)), eps=1e-5)
        assert err < 1e-5

    def test_constant_function(self):
        def fn(x):
            return 1.25, np.zeros_like(x)

        assert grad_check(fn, np.ones(5), eps=1e-5) == 0.0

    def test_coordinate_subsampling(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=64)

        def fn(x):
            return float(a @ x), a.copy()

        err = grad_check(fn, rng.normal(size=64), eps=1e-5, max_coords=10)
        assert err < 1e-6

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            grad_check(lambda x: (0.0, np.zeros_like(x)), np.ones(2), eps=0.5)
