import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from lrsdag import nn
from lrsdag import tensor_core as tc

from gradcheck import grad_check

# lane counts the conv tests run at: one, the two of a two-core machine,
# and one that leaves CHUNK // lanes a remainder
LANE_COUNTS = (1, 2, 3)


def project_fn(layer, r):
    """Scalarize a layer as sum(r * layer(x)) so grad_check can probe dx."""
    def fn(x):
        out = layer.forward(x)
        val = float((out * r).sum())
        dx = layer.backward(r)
        return val, dx
    return fn


def param_fn(layer, x, param, r):
    """Scalarize against one parameter tensor of the layer."""
    def fn(w):
        param.value[:] = w
        out = layer.forward(x)
        val = float((out * r).sum())
        layer.backward(r)
        return val, param.grad.copy()
    return fn


class TestBuilders:
    def test_fcn_shapes(self):
        net = nn.build_fcn(seed=0)
        split, logits = net.forward(np.random.default_rng(0).normal(size=(1, 1024)))
        assert logits.shape == (1, 10)
        assert split.shape == (1, 256)
        assert net.split_dim == 256

    def test_fcn_has_no_activations(self):
        net = nn.build_fcn(seed=0)
        assert all(isinstance(l, nn.Linear) for l in net.n1 + net.n2)

    def test_fcn_deterministic(self):
        a, b = nn.build_fcn(seed=7), nn.build_fcn(seed=7)
        assert a.param_bytes() == b.param_bytes()
        assert a.param_bytes() != nn.build_fcn(seed=8).param_bytes()

    def test_cnn_shapes(self):
        net = nn.build_cnn(seed=0)
        x = np.random.default_rng(1).normal(size=(2, 1, 32, 32))
        split, logits = net.forward(x)
        assert split.shape == (2, 32, 16, 16)
        assert logits.shape == (2, 10)
        assert net.split_shape == (32, 16, 16)

    def test_cnn_deterministic(self):
        assert nn.build_cnn(seed=3).param_bytes() == nn.build_cnn(seed=3).param_bytes()

    def test_fcn_flattens_image_batches(self):
        net = nn.build_fcn(seed=0)
        x = np.random.default_rng(2).normal(size=(4, 1, 32, 32))
        _, logits = net.forward(x)
        np.testing.assert_array_equal(logits, net.forward(x.reshape(4, 1024))[1])


class TestEncoder:
    def test_linear_identity_at_zero_noise(self):
        net = nn.build_fcn(seed=0)
        nn.build_encoder(net, seed=1, noise_scale=0.0)
        x = np.random.default_rng(3).normal(size=(5, 1024))
        with_e = net.forward(x, use_encoder=True)[1]
        without = net.forward(x, use_encoder=False)[1]
        np.testing.assert_allclose(with_e, without, atol=1e-9)

    def test_conv_identity_at_zero_noise(self):
        net = nn.build_cnn(seed=0)
        nn.build_encoder(net, seed=1, noise_scale=0.0)
        x = np.random.default_rng(4).normal(size=(2, 1, 32, 32))
        f = net.forward_features(x)
        split, _ = net.forward(x, use_encoder=True)
        # n1 output is post-ReLU (nonnegative), so the delta kernel + ReLU
        # encoder reproduces it exactly
        np.testing.assert_array_equal(split, f)

    def test_shape_preserved(self):
        net = nn.build_cnn(seed=0)
        nn.build_encoder(net, seed=2)
        x = np.random.default_rng(5).normal(size=(2, 1, 32, 32))
        split, _ = net.forward(x, use_encoder=True)
        assert split.shape[1:] == net.split_shape

    def test_same_seed_bit_identical(self):
        nets = [nn.build_fcn(seed=0) for _ in range(2)]
        for net in nets:
            nn.build_encoder(net, seed=11)
        assert nets[0].param_bytes(("encoder",)) == nets[1].param_bytes(("encoder",))

    def test_already_present(self):
        net = nn.build_fcn(seed=0)
        nn.build_encoder(net, seed=1)
        with pytest.raises(nn.EncoderAlreadyPresent):
            nn.build_encoder(net, seed=2)


class TestForward:
    def test_bypass_equals_encoderless(self):
        x = np.random.default_rng(6).normal(size=(3, 1024))
        plain = nn.build_fcn(seed=9)
        reference = plain.forward(x)[1].copy()
        nn.build_encoder(plain, seed=1)
        np.testing.assert_array_equal(plain.forward(x, use_encoder=False)[1], reference)

    def test_encoder_missing(self):
        net = nn.build_fcn(seed=0)
        with pytest.raises(nn.EncoderMissing):
            net.forward(np.zeros((1, 1024)), use_encoder=True)

    def test_split_features_definition(self):
        net = nn.build_fcn(seed=0)
        nn.build_encoder(net, seed=1)
        x = np.random.default_rng(7).normal(size=(2, 1024))
        f = net.forward_features(x)
        np.testing.assert_array_equal(net.forward(x, use_encoder=False)[0], f)
        assert not np.array_equal(net.forward(x, use_encoder=True)[0], f)

    @pytest.mark.parametrize("build", [nn.build_fcn, nn.build_cnn],
                             ids=["fcn", "cnn"])
    def test_empty_batch_gives_empty_logits(self, build):
        net = build(seed=0)
        nn.build_encoder(net, seed=1)
        for use_encoder in (False, True):
            split, logits = net.forward(np.zeros((0, 1, 32, 32)),
                                        use_encoder=use_encoder)
            assert split.shape == (0,) + net.split_shape
            assert logits.shape == (0, 10)

    def test_overflow_raises_nonfinite(self):
        net = nn.build_fcn(seed=0)
        net.n1[0].weight.value[:] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(tc.NonFiniteValue):
                net.forward(np.full((2, 1024), 1e308))


class ReferenceAdam:
    """The allocating Adam update that `nn.Adam` replaced; the in-place one
    must match it bit for bit."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8,
                 weight_decay=0.0):
        self.params = list(params)
        self.lr, self.beta1, self.beta2 = lr, beta1, beta2
        self.epsilon, self.weight_decay = epsilon, weight_decay
        self._state = {}

    def step(self):
        for p in self.params:
            g = p.grad
            state = self._state.setdefault(
                id(p), {"m": np.zeros_like(p.value), "v": np.zeros_like(p.value), "t": 0})
            state["t"] += 1
            t = state["t"]
            state["m"] = self.beta1 * state["m"] + (1.0 - self.beta1) * g
            state["v"] = self.beta2 * state["v"] + (1.0 - self.beta2) * g * g
            m_hat = state["m"] / (1.0 - self.beta1 ** t)
            v_hat = state["v"] / (1.0 - self.beta2 ** t)
            decay = self.lr * self.weight_decay * p.value if self.weight_decay else None
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)
            if decay is not None:
                p.value -= decay


def mixed_params(seed):
    """The parameters of FCN- and CNN-shaped layers of several sizes; the
    largest comes last."""
    rng = np.random.default_rng(seed)
    layers = [nn.Linear(48, 10, rng), nn.Conv2d(3, 8, 3, 3, rng=rng),
              nn.Linear(64, 48, rng), nn.Conv2d(8, 16, 5, 5, rng=rng)]
    return [p for layer in layers for p in layer.params()]


def trainable_params(net):
    """What `engine._train` hands its optimizer: the parameters of every
    layer not frozen."""
    return [p for layers in net.blocks().values() for layer in layers
            if not layer.frozen for p in layer.params()]


class TestAdam:
    def _layer_with_grad(self, g):
        layer = nn.Linear(3, 2, rng=np.random.default_rng(0))
        layer.weight.grad[:] = g
        return layer

    def test_zero_gradient_fixed_point(self):
        layer = self._layer_with_grad(0.0)
        before = layer.weight.value.copy()
        nn.Adam(layer.params(), lr=0.1).step()
        np.testing.assert_array_equal(layer.weight.value, before)

    def test_first_step_magnitude(self):
        layer = self._layer_with_grad(0.0)
        g = np.random.default_rng(1).normal(size=(2, 3))
        layer.weight.grad[:] = g
        before = layer.weight.value.copy()
        opt = nn.Adam(layer.params(), lr=0.01)
        opt.step()
        expected = before - 0.01 * g / (np.abs(g) + nn.EPSILON)
        np.testing.assert_allclose(layer.weight.value, expected, atol=1e-12)

    def test_decoupled_decay_uses_pre_update_weights(self):
        # AdamW: theta_1 = theta_0 - lr * (m_hat / (sqrt(v_hat) + eps)
        # + wd * theta_0); on the first step m_hat = g and v_hat = g^2
        layer = self._layer_with_grad(0.0)
        g = np.random.default_rng(2).normal(size=(2, 3))
        layer.weight.grad[:] = g
        theta0 = layer.weight.value.copy()
        lr, wd, eps = 0.1, 0.5, nn.EPSILON
        nn.Adam(layer.params(), lr=lr, weight_decay=wd).step()
        expected = theta0 - lr * (g / (np.abs(g) + eps) + wd * theta0)
        np.testing.assert_allclose(layer.weight.value, expected, rtol=0, atol=1e-15)
        # the bias has a zero gradient, so only the decay of zero acts on it
        np.testing.assert_array_equal(layer.bias.value, np.zeros(2))

    def test_only_the_parameters_handed_over_step(self):
        layer = self._layer_with_grad(1.0)
        layer.bias.grad[:] = 1.0
        layer.bias.value[:] = 0.5
        weight, bias = layer.weight.value.tobytes(), layer.bias.value.tobytes()
        opt = nn.Adam([layer.weight], lr=0.1, weight_decay=0.1)
        for _ in range(5):
            opt.step()
        assert layer.bias.value.tobytes() == bias
        assert layer.weight.value.tobytes() != weight

    def test_lr_zero_identity(self):
        layer = self._layer_with_grad(1.0)
        raw = layer.weight.value.tobytes()
        nn.Adam(layer.params(), lr=0.0, weight_decay=0.5).step()
        assert layer.weight.value.tobytes() == raw

    def test_nonfinite_gradient(self):
        layer = self._layer_with_grad(np.nan)
        with pytest.raises(nn.NonFiniteGradient):
            nn.Adam(layer.params()).step()

    def test_nonfinite_bias_gradient_changes_nothing(self):
        layer = self._layer_with_grad(0.5)
        layer.bias.grad[:] = 0.25
        opt = nn.Adam(layer.params(), lr=0.1, weight_decay=0.1)
        opt.step()
        before = (layer.weight.value.tobytes(), opt.m[0].tobytes(),
                  opt.v[0].tobytes(), opt.t)
        layer.bias.grad[1] = np.nan
        with pytest.raises(nn.NonFiniteGradient):
            opt.step()
        assert (layer.weight.value.tobytes(), opt.m[0].tobytes(),
                opt.v[0].tobytes(), opt.t) == before

    @pytest.mark.parametrize("lr,wd", [(1e-2, 0.0), (1e-2, 0.1), (0.0, 0.0), (0.0, 0.1)])
    def test_matches_allocating_reference(self, lr, wd):
        # parameters of several sizes share scratch sized to the largest
        ours, ref = mixed_params(5), mixed_params(5)
        opt = nn.Adam(ours, lr=lr, weight_decay=wd)
        ref_opt = ReferenceAdam(ref, lr=lr, weight_decay=wd)
        rng = np.random.default_rng(6)
        for step in range(8):
            for pa, pb in zip(ours, ref):
                pa.grad[:] = pb.grad[:] = rng.normal(scale=10.0 ** rng.integers(-6, 2),
                                                     size=pa.grad.shape)
            opt.step()
            ref_opt.step()
            for pa, pb in zip(ours, ref):
                assert pa.value.tobytes() == pb.value.tobytes(), step
        for pa, pb, m, v in zip(ours, ref, opt.m, opt.v):
            state = ref_opt._state[id(pb)]
            assert m.tobytes() == state["m"].tobytes()
            assert v.tobytes() == state["v"].tobytes()
            assert opt.t == state["t"]


# (layer factory, input shape) of each layer kind with parameters
PARAM_LAYERS = pytest.mark.parametrize("factory,shape", [
    (lambda rng: nn.Linear(6, 4, rng=rng), (3, 6)),
    (lambda rng: nn.Conv2d(2, 3, 3, 3, 2, 1, rng=rng), (2, 2, 6, 6)),
], ids=["linear", "conv"])


class TestFrozenBackward:
    @PARAM_LAYERS
    def test_frozen_layer_passes_dx_only(self, factory, shape):
        rng = np.random.default_rng(3)
        trainable, frozen = factory(np.random.default_rng(4)), factory(np.random.default_rng(4))
        frozen.frozen = True
        x = rng.normal(size=shape)
        dout = rng.normal(size=trainable.forward(x).shape)
        frozen.forward(x)
        np.testing.assert_array_equal(frozen.backward(dout), trainable.backward(dout))
        assert all(not p.grad.any() for p in frozen.params())
        assert all(p.grad.any() for p in trainable.params())

    def test_walk_stops_at_split_when_n1_frozen(self):
        net = nn.build_cnn(seed=0)
        nn.build_encoder(net, seed=1)
        nn.set_frozen(net, ("n1", "n2"), True)
        x = np.random.default_rng(5).normal(size=(2, 1, 32, 32))
        labels = np.array([3, 7])
        _, logits = net.forward(x, use_encoder=True)
        d = net.backward(tc.cross_entropy_grad(logits, labels), use_encoder=True)
        assert d.shape == (2,) + net.split_shape
        assert all(not p.grad.any() for p in net.all_params(("n1", "n2")))
        assert all(p.grad.any() for p in net.all_params(("encoder",)))


FITS = pytest.mark.parametrize("build,fit", [
    (build, fit) for build in (nn.build_fcn, nn.build_cnn)
    for fit in ("phase1", "finetune", "adapt")],
    ids=[f"{arch}-{fit}" for arch in ("fcn", "cnn")
         for fit in ("phase1", "finetune", "adapt")])


def fit_network(build, fit):
    """(net, use_encoder) for one of the three networks `engine._train`
    steps: all layers trainable, N1 frozen with N2 on f(x), and the
    encoder between frozen halves."""
    net = build(seed=0)
    use_encoder = fit == "adapt"
    if fit != "phase1":
        nn.set_frozen(net, ("n1",), True)
    if use_encoder:
        nn.build_encoder(net, seed=1)
        nn.set_frozen(net, ("n2",), True)
    return net, use_encoder


def training_step(net, use_encoder, input_grad=True):
    """One forward and `Network.backward` the way `engine._train` runs
    them; returns what the backward returns."""
    rng = np.random.default_rng(22)
    x = rng.normal(size=(4, 1, 32, 32))
    if all(layer.frozen for layer in net.n1):
        with net.inference():
            f = net.forward_features(x)
        split, logits = net.head(f, use_encoder=use_encoder)
    else:
        split, logits = net.forward(x)
    split_grad = rng.normal(size=split.shape) if use_encoder else None
    return net.backward(tc.cross_entropy_grad(logits, np.array([1, 4, 4, 9])),
                        use_encoder=use_encoder, split_grad=split_grad,
                        input_grad=input_grad)


class TestGradientBuffers:
    """A backward sets the gradients of a trainable layer, so no value from
    an earlier step can reach `Adam`."""

    @PARAM_LAYERS
    def test_second_backward_overwrites_the_first(self, factory, shape):
        rng = np.random.default_rng(21)
        layer, fresh, frozen = (factory(np.random.default_rng(4)) for _ in range(3))
        frozen.frozen = True
        x = rng.normal(size=shape)
        for each in (layer, fresh, frozen):
            out = each.forward(x)
        first, second = rng.normal(size=out.shape), rng.normal(size=out.shape)
        for each in (layer, frozen):
            each.backward(first)
            each.backward(second)
        fresh.backward(second)
        assert ([p.grad.tobytes() for p in layer.params()]
                == [p.grad.tobytes() for p in fresh.params()])
        assert all(not p.grad.any() for p in frozen.params())

    @FITS
    def test_training_step_sets_every_trainable_gradient(self, build, fit):
        net, use_encoder = fit_network(build, fit)
        trainable = trainable_params(net)
        for p in trainable:
            p.grad.fill(np.nan)
        training_step(net, use_encoder)
        assert trainable and all(np.isfinite(p.grad).all() for p in trainable)
        assert all(not p.grad.any() for layers in net.blocks().values()
                   for layer in layers if layer.frozen for p in layer.params())

    @FITS
    def test_no_input_gradient_sets_the_same_gradients(self, build, fit):
        # the walk's last layer (N1[0], the encoder's first or N2[0]) skips
        # only its input gradient, which `engine._train` never reads
        grads = []
        for input_grad in (True, False):
            net, use_encoder = fit_network(build, fit)
            d = training_step(net, use_encoder, input_grad)
            assert (d is None) == (not input_grad)
            grads.append([p.grad.tobytes() for p in net.all_params()])
        assert grads[0] == grads[1]


class TestFreezing:
    def _train_steps(self, net, steps, x, labels):
        opt = nn.Adam(trainable_params(net), lr=1e-2)
        for _ in range(steps):
            _, logits = net.forward(x, use_encoder=net.encoder is not None)
            net.backward(tc.cross_entropy_grad(logits, labels),
                         use_encoder=net.encoder is not None)
            opt.step()

    def test_frozen_blocks_bit_identical(self):
        net = nn.build_fcn(seed=0)
        nn.build_encoder(net, seed=1)
        nn.set_frozen(net, ("n1", "n2"), True)
        raw = net.param_bytes(("n1", "n2"))
        x = np.random.default_rng(8).normal(size=(16, 1024))
        labels = np.random.default_rng(9).integers(0, 10, size=16)
        self._train_steps(net, 10, x, labels)
        assert net.param_bytes(("n1", "n2")) == raw
        assert net.param_bytes(("encoder",)) != nn.build_fcn(seed=0).param_bytes(("n1",))

    def test_unfreeze_resumes(self):
        net = nn.build_fcn(seed=0)
        nn.set_frozen(net, ("n1",), True)
        raw = net.param_bytes(("n1",))
        x = np.random.default_rng(10).normal(size=(8, 1024))
        labels = np.random.default_rng(11).integers(0, 10, size=8)
        self._train_steps(net, 3, x, labels)
        assert net.param_bytes(("n1",)) == raw
        nn.set_frozen(net, ("n1",), False)
        self._train_steps(net, 3, x, labels)
        assert net.param_bytes(("n1",)) != raw

    def test_freeze_missing_encoder(self):
        with pytest.raises(nn.EncoderMissing):
            nn.set_frozen(nn.build_fcn(seed=0), ("encoder",), True)


def where_relu_forward(self, x, keep=True):
    """The np.where form of ReLU.forward: the reference whose parameter
    bytes the branch-free ReLU must reproduce."""
    mask = x > 0
    self._mask = mask if keep else None
    return np.where(mask, x, 0.0)


def where_relu_backward(self, dout, input_grad=True):
    return np.where(self._kept(self._mask), dout, 0.0)


class TestReLU:
    """ReLU is np.maximum forward and a mask product backward; on finite
    inputs it gives np.where's bits up to the sign of a zero in dx."""

    def test_maximum_of_negative_zero_is_positive_zero(self):
        # the forward's zeros are np.where's +0.0 only while this holds
        assert not np.signbit(np.maximum(-0.0, 0.0))
        assert not np.signbit(np.maximum(np.full(1000, -0.0), 0.0)).any()

    def test_nan_propagates(self):
        relu = nn.ReLU()
        out = relu.forward(np.array([[np.nan, -1.0, 2.0]]))
        assert np.isnan(out[0, 0]) and out[0, 1:].tolist() == [0.0, 2.0]

    def test_phase1_steps_match_where_relu(self, monkeypatch):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(8, 1, 32, 32))
        labels = rng.integers(0, 10, size=8)

        def train():
            net = nn.build_cnn(seed=2)
            opt = nn.Adam(net.all_params(), lr=1e-2)
            for _ in range(3):
                _, logits = net.forward(x)
                net.backward(tc.cross_entropy_grad(logits, labels),
                             input_grad=False)
                opt.step()
            return net.param_bytes()

        branch_free = train()
        monkeypatch.setattr(nn.ReLU, "forward", where_relu_forward)
        monkeypatch.setattr(nn.ReLU, "backward", where_relu_backward)
        assert train() == branch_free


class TestLayerGradients:
    """Finite-difference checks at the shapes the builders actually use."""

    CASES = [
        ("linear_1024_512", lambda rng: (nn.Linear(1024, 512, rng=rng), (2, 1024))),
        ("linear_256_128", lambda rng: (nn.Linear(256, 128, rng=rng), (2, 256))),
        # the CNN's last layer flattens its (B, C, H, W) input itself
        ("linear_48_10_4d", lambda rng: (nn.Linear(48, 10, rng=rng), (2, 3, 4, 4))),
        ("conv_1_16_s1", lambda rng: (nn.Conv2d(1, 16, 3, 3, 1, 1, rng=rng), (2, 1, 12, 12))),
        ("conv_16_32_s2", lambda rng: (nn.Conv2d(16, 32, 3, 3, 2, 1, rng=rng), (2, 16, 8, 8))),
        ("conv_64_64_s1", lambda rng: (nn.Conv2d(64, 64, 3, 3, 1, 1, rng=rng), (1, 64, 4, 4))),
        ("relu", lambda rng: (nn.ReLU(), (2, 5, 4, 4))),
    ]
    WITH_PARAMS = [c for c in CASES if c[0] != "relu"]

    @pytest.mark.parametrize("name,factory", CASES, ids=[c[0] for c in CASES])
    def test_input_gradient(self, name, factory):
        rng = np.random.default_rng(hash(name) % 2**32)
        layer, in_shape = factory(rng)
        x = rng.normal(size=in_shape) + 0.1  # keep clear of the ReLU kink
        out = layer.forward(x)
        r = rng.normal(size=out.shape)
        err = grad_check(project_fn(layer, r), x, eps=1e-5, max_coords=60, rng=rng)
        assert err < 1e-4

    @pytest.mark.parametrize("name,factory", WITH_PARAMS, ids=[c[0] for c in WITH_PARAMS])
    def test_param_gradients(self, name, factory):
        rng = np.random.default_rng(hash(name + "p") % 2**32)
        layer, in_shape = factory(rng)
        x = rng.normal(size=in_shape)
        r = rng.normal(size=layer.forward(x).shape)
        for param in layer.params():
            err = grad_check(param_fn(layer, x, param, r), param.value.copy(),
                             eps=1e-5, max_coords=60, rng=rng)
            assert err < 1e-4

    def test_full_network_input_gradient(self):
        rng = np.random.default_rng(42)
        net = nn.build_fcn(seed=5)
        labels = rng.integers(0, 10, size=2)

        def fn(x):
            _, logits = net.forward(x)
            dx = net.backward(tc.cross_entropy_grad(logits, labels))
            return tc.cross_entropy(logits, labels), dx

        for shape in ((2, 1024), (2, 1, 32, 32)):
            err = grad_check(fn, rng.normal(size=shape), eps=1e-5,
                             max_coords=60, rng=rng)
            assert err < 1e-4, shape


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = nn.build_cnn(seed=4)
        nn.build_encoder(net, seed=5)
        nn.set_frozen(net, ("n1", "n2"), True)
        path = tmp_path / "model.npz"
        nn.save_checkpoint(net, path, meta={"phase": "adapted", "seed": 4})
        loaded, meta = nn.load_checkpoint(path)
        assert meta == {"phase": "adapted", "seed": 4}
        assert loaded.arch == "cnn"
        assert loaded.split_shape == net.split_shape
        for blocks in (("n1",), ("n2",), ("encoder",)):
            assert loaded.param_bytes(blocks) == net.param_bytes(blocks)
        assert all(l.frozen for l in loaded.n1)
        assert not any(l.frozen for l in loaded.encoder)

    def test_failed_save_leaves_no_file(self, tmp_path, monkeypatch):
        net = nn.build_fcn(seed=7)
        path = tmp_path / "fcn.npz"
        orig = np.savez

        def savez(fh, **arrays):
            fh.write(b"PK partial archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez)
        with pytest.raises(OSError, match="disk full"):
            nn.save_checkpoint(net, path)
        assert os.listdir(tmp_path) == []
        # an existing checkpoint is left as it was
        monkeypatch.setattr(np, "savez", orig)
        nn.save_checkpoint(net, path)
        saved = path.read_bytes()
        monkeypatch.setattr(np, "savez", savez)
        with pytest.raises(OSError, match="disk full"):
            nn.save_checkpoint(nn.build_fcn(seed=8), path)
        assert os.listdir(tmp_path) == ["fcn.npz"]
        assert path.read_bytes() == saved

    def test_forward_identical_after_reload(self, tmp_path):
        net = nn.build_fcn(seed=6)
        path = tmp_path / "fcn.npz"
        nn.save_checkpoint(net, path)
        loaded, _ = nn.load_checkpoint(path)
        x = np.random.default_rng(12).normal(size=(3, 1024))
        np.testing.assert_array_equal(loaded.forward(x)[1], net.forward(x)[1])

    def test_cnn_with_encoder_reload_identical(self, tmp_path):
        net = nn.build_cnn(seed=4)
        nn.build_encoder(net, seed=5, noise_scale=0.1)
        nn.set_frozen(net, ("n1", "n2"), True)
        path = tmp_path / "cnn.npz"
        nn.save_checkpoint(net, path)
        loaded, _ = nn.load_checkpoint(path)
        for name, layers in net.blocks().items():
            assert ([l.descriptor() for l in loaded.blocks()[name]]
                    == [l.descriptor() for l in layers]), name
        x = np.random.default_rng(13).normal(size=(2, 1, 32, 32))
        for use_encoder in (False, True):
            assert (loaded.forward(x, use_encoder)[1].tobytes()
                    == net.forward(x, use_encoder)[1].tobytes()), use_encoder

    def test_fcn_structure_format(self, tmp_path):
        # the bytes every FCN checkpoint written so far holds; the loader
        # must keep reading them
        net = nn.build_fcn(seed=0)
        nn.build_encoder(net, seed=1)
        nn.set_frozen(net, ("n1", "n2"), True)
        path = tmp_path / "fcn.npz"
        nn.save_checkpoint(net, path, meta={"phase": "adapted", "seed": 0})
        with np.load(path) as stored:
            structure = str(stored["structure"])
        enc = '{"frozen": false, "in_dim": 256, "kind": "linear", "out_dim": 256}'
        assert structure == (
            '{"arch": "fcn", "blocks": {"encoder": [' + enc + ", " + enc + '], '
            '"n1": [{"frozen": true, "in_dim": 1024, "kind": "linear", "out_dim": 512}, '
            '{"frozen": true, "in_dim": 512, "kind": "linear", "out_dim": 256}], '
            '"n2": [{"frozen": true, "in_dim": 256, "kind": "linear", "out_dim": 128}, '
            '{"frozen": true, "in_dim": 128, "kind": "linear", "out_dim": 10}]}, '
            '"meta": {"phase": "adapted", "seed": 0}, "split_shape": [256]}')
        assert nn.load_checkpoint(path)[0].param_bytes() == net.param_bytes()

    def test_unknown_layer_kind(self, unbuildable_checkpoint):
        path = unbuildable_checkpoint("flatten")
        with pytest.raises(nn.NetworkError,
                           match="unknown layer kind 'flatten'") as err:
            nn.load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_array_shape_mismatch(self, unbuildable_checkpoint):
        path = unbuildable_checkpoint("shape")
        with pytest.raises(nn.NetworkError,
                           match=r"array n2\.6\.0 has shape \(10, 8\)") as err:
            nn.load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("read", [nn.load_checkpoint, nn.checkpoint_meta],
                             ids=["load", "meta"])
    def test_not_a_checkpoint(self, not_a_checkpoint, read):
        with pytest.raises(nn.NetworkError,
                           match=f"{not_a_checkpoint.name} is not a checkpoint"):
            read(not_a_checkpoint)

    @pytest.mark.parametrize("read", [nn.load_checkpoint, nn.checkpoint_meta],
                             ids=["load", "meta"])
    def test_missing_file_is_oserror(self, tmp_path, read):
        with pytest.raises(FileNotFoundError):
            read(tmp_path / "missing.npz")


class TestForwardCaches:
    """A forward keeps what a backward will read, and nothing else."""

    LAYERS = [
        ("linear", lambda: nn.Linear(48, 5, rng=np.random.default_rng(0)), (3, 3, 4, 4)),
        ("conv", lambda: nn.Conv2d(3, 4, 3, 3, 2, 1, rng=np.random.default_rng(0)),
         (3, 3, 6, 6)),
        ("relu", nn.ReLU, (3, 3, 4, 4)),
    ]

    @pytest.mark.parametrize("name,factory,shape", LAYERS, ids=[c[0] for c in LAYERS])
    def test_inference_forward_drops_earlier_cache(self, name, factory, shape):
        layer = factory()
        x = np.random.default_rng(1).normal(size=shape)
        out = layer.forward(x)
        layer.forward(x, keep=False)
        # the columns, input or mask of the first batch are gone, so no
        # backward can pair them with the second one
        with pytest.raises(nn.NetworkError, match=type(layer).__name__):
            layer.backward(np.ones_like(out))

    @pytest.mark.parametrize("name,factory,shape", LAYERS, ids=[c[0] for c in LAYERS])
    def test_backward_without_forward(self, name, factory, shape):
        layer = factory()
        out_shape = factory().forward(np.zeros(shape)).shape
        with pytest.raises(nn.NetworkError, match=type(layer).__name__):
            layer.backward(np.ones(out_shape))

    def test_frozen_layers_keep_only_the_input_shape(self):
        x = np.random.default_rng(2).normal(size=(2, 3, 6, 6))
        conv = nn.Conv2d(3, 4, 3, 3, 1, 1, rng=np.random.default_rng(3))
        lin = nn.Linear(108, 5, rng=np.random.default_rng(4))
        for layer in (conv, lin):
            layer.forward(x)
            layer.frozen = True
            layer.forward(x)
        assert conv._cols is None and conv._x_shape == x.shape
        assert lin._x is None and lin._in_shape == x.shape
        # unfrozen after a frozen forward, the weight gradient has no input
        for layer, out_shape in ((conv, (2, 4, 6, 6)), (lin, (2, 5))):
            layer.frozen = False
            with pytest.raises(nn.NetworkError):
                layer.backward(np.ones(out_shape))

    def test_network_inference_keeps_nothing(self, held_caches):
        net = nn.build_cnn(seed=0)
        nn.build_encoder(net, seed=1)
        x = np.random.default_rng(5).normal(size=(2, 1, 32, 32))
        net.forward(x, use_encoder=True)
        assert len(held_caches(net)) == 15  # 7 convs, 7 ReLUs, 1 Linear
        with net.inference():
            with net.inference():
                pass
            net.forward(x, use_encoder=True)
            assert held_caches(net) == []
        net.forward(x)
        assert "n2.6._x" in held_caches(net)


def slice_sizes(n, lanes):
    """The image counts a conv's lanes take from a batch of n, as a
    multiset: CHUNK // lanes each, the last one the remainder."""
    step = nn.CHUNK // lanes
    return sorted([step] * (n // step) + ([n % step] if n % step else []))


class TestConvChunks:
    """A conv deals its images over LANES lanes, CHUNK // LANES at a time
    per lane, unfolding each slice into its place in the columns a
    trainable layer keeps or into its lane's slot of one reused buffer;
    each image's output is one GEMM either way, whatever the lane count."""

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 70])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_chunked_equals_caching_and_per_image(self, n, stride, padding,
                                                  monkeypatch):
        rng = np.random.default_rng(n + 10 * stride + padding)
        conv = nn.Conv2d(3, 5, 3, 3, stride, padding, rng=rng)
        conv.bias.value[:] = rng.normal(size=5)
        x = rng.normal(size=(n, 3, 9, 9))
        outputs = set()
        for lanes in LANE_COUNTS:
            monkeypatch.setattr(nn, "LANES", lanes)
            cached = conv.forward(x)
            chunked = conv.forward(x, keep=False)
            h = (9 + 2 * padding - 3) // stride + 1
            assert chunked.shape == cached.shape == (n, 5, h, h)
            assert chunked.tobytes() == cached.tobytes()
            outputs.add(chunked.tobytes())
        for i in range(n):
            assert chunked[i].tobytes() == conv.forward(x[i:i + 1])[0].tobytes(), i
        assert len(outputs) == 1

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 70])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_backward_equals_per_image_at_every_lane_count(self, n, stride, padding,
                                                           monkeypatch):
        rng = np.random.default_rng(n + 10 * stride + padding + 1)
        conv = nn.Conv2d(3, 5, 3, 3, stride, padding, rng=rng)
        x = rng.normal(size=(n, 3, 9, 9))
        dout = rng.normal(size=conv.forward(x).shape)
        grads = set()
        for lanes in LANE_COUNTS:
            monkeypatch.setattr(nn, "LANES", lanes)
            conv.forward(x)
            dx = conv.backward(dout)
            grads.add((dx.tobytes(), conv.weight.grad.tobytes(),
                       conv.bias.grad.tobytes()))
        assert len(grads) == 1
        # an image's input gradient is its own GEMM and scatter
        for i in range(n):
            conv.forward(x[i:i + 1])
            assert conv.backward(dout[i:i + 1])[0].tobytes() == dx[i].tobytes(), i

    def test_unfolds_chunk_images_at_a_time(self, monkeypatch):
        # lanes interleave their calls, so only the multiset of slices holds
        seen = []
        orig = tc.im2col
        monkeypatch.setattr(tc, "im2col",
                            lambda x, *a: seen.append(tuple(x[:, 0, 0, 0])) or orig(x, *a))
        x = np.random.default_rng(1).normal(size=(2 * nn.CHUNK + 3, 1, 5, 5))
        x[:, 0, 0, 0] = np.arange(len(x))  # each image's mark
        # the kept columns are one (K, B, Ho*Wo) array, each slice in its place
        ref = np.empty((9, len(x), 25))
        orig(x, 3, 3, 1, 1, ref)
        for lanes in LANE_COUNTS:
            monkeypatch.setattr(nn, "LANES", lanes)

            def every_image_once():
                assert sorted(map(len, seen)) == slice_sizes(len(x), lanes)
                assert sorted(i for part in seen for i in part) == list(range(len(x)))
                seen.clear()

            conv = nn.Conv2d(1, 2, 3, 3, 1, 1, rng=np.random.default_rng(0))
            conv.forward(x, keep=False)
            every_image_once()
            assert conv._cols is None
            conv.frozen = True
            conv.forward(x)
            every_image_once()
            assert conv._cols is None
            conv.frozen = False
            conv.forward(x)
            every_image_once()
            assert conv._cols.shape == ref.shape and conv._cols.flags.c_contiguous
            assert conv._cols.tobytes() == ref.tobytes()

    def test_kept_columns_freed_before_the_next_are_made(self):
        """The next kept forward frees the last batch's columns before it
        makes its own, so two batches' columns never coexist."""
        rng = np.random.default_rng(2)
        conv = nn.Conv2d(16, 1, 3, 3, 1, 1, rng=rng)
        x = rng.normal(size=(64, 16, 12, 12))
        tracemalloc.start()
        try:
            conv.forward(x)
            tracemalloc.reset_peak()
            conv.forward(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert conv._cols.nbytes < peak < 1.5 * conv._cols.nbytes

    def test_input_gradient_dx_chunk_images_at_a_time(self, monkeypatch):
        seen = []
        orig = tc.col2im
        monkeypatch.setattr(tc, "col2im", lambda c, *a: seen.append(len(c)) or orig(c, *a))
        conv = nn.Conv2d(1, 2, 3, 3, 1, 1, rng=np.random.default_rng(0))
        x = np.ones((2 * nn.CHUNK + 3, 1, 5, 5))
        for lanes in LANE_COUNTS:
            monkeypatch.setattr(nn, "LANES", lanes)
            conv.backward(np.ones_like(conv.forward(x)))
            assert sorted(seen) == slice_sizes(len(x), lanes)
            seen.clear()

    @pytest.mark.parametrize("n", [0, 1, 3, 70])
    def test_weight_gradient_is_one_item_run_once(self, n, monkeypatch):
        """A backward that computes dx hands `_deal` its weight and bias
        gradients as one extra item, run once, with the bits of a backward
        that computes them alone."""
        rng = np.random.default_rng(n + 3)
        conv = nn.Conv2d(3, 5, 3, 3, 1, 1, rng=rng)
        x = rng.normal(size=(n, 3, 9, 9))
        dout = rng.normal(size=conv.forward(x).shape)
        conv.backward(dout, input_grad=False)
        alone = (conv.weight.grad.tobytes(), conv.bias.grad.tobytes())
        runs = []
        orig = nn._deal

        def deal(count, work, extra=None):
            if extra is None:
                return orig(count, work)
            return orig(count, work, lambda: runs.append(count) or extra())

        monkeypatch.setattr(nn, "_deal", deal)
        for lanes in LANE_COUNTS:
            monkeypatch.setattr(nn, "LANES", lanes)
            conv.weight.grad[:] = np.nan
            conv.bias.grad[:] = np.nan
            conv.forward(x)
            conv.backward(dout)
            assert runs == [n]
            assert (conv.weight.grad.tobytes(), conv.bias.grad.tobytes()) == alone
            runs.clear()
            # without dx, or on a frozen layer, nothing is dealt as an item
            conv.forward(x)
            conv.backward(dout, input_grad=False)
            conv.frozen = True
            conv.forward(x)
            conv.backward(dout)
            conv.frozen = False
            assert runs == []

    def test_a_slow_lane_changes_no_bit(self, monkeypatch):
        """Lanes take the next item not yet taken, so a lane that falls
        behind takes fewer; every image is still one GEMM and one col2im
        of its own, and dx, dW and db keep their bits."""
        rng = np.random.default_rng(4)
        conv = nn.Conv2d(3, 5, 3, 3, 1, 1, rng=rng)
        x = rng.normal(size=(70, 3, 9, 9))
        dout = rng.normal(size=conv.forward(x).shape)

        def grads():
            conv.forward(x)
            dx = conv.backward(dout)
            return dx.tobytes(), conv.weight.grad.tobytes(), conv.bias.grad.tobytes()

        monkeypatch.setattr(nn, "LANES", 2)
        want = grads()
        taken = []
        orig = tc.col2im

        def col2im(*args):
            taken.append(threading.current_thread() is threading.main_thread())
            if taken[-1]:
                time.sleep(0.05)
            return orig(*args)

        monkeypatch.setattr(tc, "col2im", col2im)
        assert grads() == want
        assert len(taken) == len(slice_sizes(len(x), 2))
        assert sum(taken) < len(taken) - sum(taken)


needs_blas_setter = pytest.mark.skipif(nn._BLAS_THREADS is None,
                                       reason="NumPy's BLAS has no OpenBLAS thread setter")


@pytest.fixture
def blas_threads():
    """OpenBLAS's (get, set), its thread count put back after the test."""
    get, put = nn._BLAS_THREADS
    before = get()
    yield get, put
    put(before)


class TestLanes:
    """Conv lanes run on short-lived threads while a conv network's pass
    holds NumPy's OpenBLAS at one thread."""

    def test_lane_exception_reaches_the_caller(self, monkeypatch):
        class LaneFailure(Exception):
            pass

        orig = tc.im2col

        def im2col(x, *a):
            if threading.current_thread() is not threading.main_thread():
                raise LaneFailure("in a lane")
            return orig(x, *a)

        monkeypatch.setattr(tc, "im2col", im2col)
        monkeypatch.setattr(nn, "LANES", 2)
        threads = threading.active_count()
        conv = nn.Conv2d(1, 2, 3, 3, 1, 1, rng=np.random.default_rng(0))
        with pytest.raises(LaneFailure, match="in a lane"):
            conv.forward(np.ones((2 * nn.CHUNK, 1, 5, 5)))
        assert threading.active_count() == threads

    def test_every_item_taken_once_under_contention(self, monkeypatch):
        """More lanes than cores and a short switch interval: each slice
        and the extra item still go to exactly one lane, and every slice
        fits its lane's slot of a `_slots()`-image buffer."""
        monkeypatch.setattr(nn, "LANES", nn.CHUNK)
        taken, extras = [], []

        def work(start, stop, slot):
            assert slot + stop - start <= nn._slots()
            taken.append(start)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                nn._deal(401, work, lambda: extras.append(1))
                assert sorted(taken) == list(range(401)) and extras == [1]
                taken.clear()
                extras.clear()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    def test_weight_gradient_exception_reaches_the_caller(self, lanes, monkeypatch):
        monkeypatch.setattr(nn, "LANES", lanes)
        threads = threading.active_count()
        conv = nn.Conv2d(1, 2, 3, 3, 1, 1, rng=np.random.default_rng(0))
        out = conv.forward(np.ones((2 * nn.CHUNK, 1, 5, 5)))
        conv.weight.grad.flags.writeable = False  # the GEMM's out= write raises
        with pytest.raises(ValueError, match="read-only"):
            conv.backward(np.ones_like(out))
        assert threading.active_count() == threads

    def test_failed_setter_lookup_gives_one_lane(self, monkeypatch):
        def no_library(*args, **kwargs):
            raise OSError("no such library")

        monkeypatch.setattr(nn.ctypes, "CDLL", no_library)
        assert nn._find_blas_threads() is None
        assert nn._lane_count(nn._find_blas_threads()) == 1
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:
            cpus = os.cpu_count()
        assert nn._lane_count(object()) == min(cpus, nn.CHUNK)

    @needs_blas_setter
    def test_conv_pass_pins_and_restores_the_count(self, blas_threads, monkeypatch):
        get, put = blas_threads
        put(2)
        seen = []
        orig = tc.im2col
        monkeypatch.setattr(tc, "im2col", lambda x, *a: seen.append(get()) or orig(x, *a))
        net = nn.build_cnn(seed=0)
        x = np.random.default_rng(0).normal(size=(3, 1, 32, 32))
        _, logits = net.forward(x)
        assert get() == 2
        net.backward(np.ones_like(logits))
        assert get() == 2
        assert seen and set(seen) == {1}
        # a pass that raises (the logits check) restores the count too
        bad = x.copy()
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(tc.NonFiniteValue):
            net.forward(bad)
        assert get() == 2
        # nested passes: the inner one restores the outer one's count
        with net._pinned():
            _, logits = net.forward(x)
            assert get() == 1
            with net._pinned():
                net.backward(np.ones_like(logits))
                assert get() == 1
            assert get() == 1
        assert get() == 2

    @needs_blas_setter
    def test_fcn_pass_keeps_the_count(self, blas_threads, monkeypatch):
        get, put = blas_threads
        put(2)
        seen = []
        orig = nn.Linear.forward
        monkeypatch.setattr(nn.Linear, "forward",
                            lambda self, x, keep=True: seen.append(get()) or orig(self, x, keep))
        nn.build_fcn(seed=0).forward(np.ones((2, 1, 32, 32)))
        assert set(seen) == {2}

    @needs_blas_setter
    def test_pinned_outputs_equal_the_default_count(self, blas_threads, monkeypatch):
        get, put = blas_threads
        x = np.random.default_rng(1).normal(size=(2 * nn.CHUNK + 1, 1, 32, 32))

        def step():
            net = nn.build_cnn(seed=3)
            nn.build_encoder(net, seed=4)
            split, logits = net.forward(x, use_encoder=True)
            dx = net.backward(np.cos(logits), use_encoder=True,
                              split_grad=np.sin(split))
            return [split, logits, dx] + [p.grad for p in net.all_params()]

        pinned = step()
        put(max(2, get()))
        monkeypatch.setattr(nn, "_BLAS_THREADS", None)  # no pass pins
        at_default = step()
        assert [a.tobytes() for a in pinned] == [a.tobytes() for a in at_default]
