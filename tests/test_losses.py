import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrsdag import losses
from lrsdag import tensor_core as tc

from gradcheck import grad_check


def rand_batch(rng, b=6, k=5, scale=1.0):
    return rng.normal(scale=scale, size=(b, k))


batches = arrays(
    np.float64, (4, 3),
    elements=st.floats(min_value=-20, max_value=20, allow_nan=False),
)


class TestMSE:
    def test_identity(self):
        a = rand_batch(np.random.default_rng(0))
        assert losses.loss_mse(a, a)[0] == 0.0

    def test_hand_value(self):
        value, _ = losses.loss_mse(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
        assert value == pytest.approx(5.0)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a, b = rand_batch(rng), rand_batch(rng)
        assert losses.loss_mse(a, b)[0] == pytest.approx(losses.loss_mse(b, a)[0])

    def test_shape_mismatch(self):
        with pytest.raises(tc.ShapeMismatch):
            losses.loss_mse(np.zeros((2, 3)), np.zeros((2, 4)))


class TestKL:
    def test_identity_is_zero(self):
        a = rand_batch(np.random.default_rng(2))
        assert losses.loss_kl(a, a)[0] == pytest.approx(0.0, abs=1e-12)
        assert losses.loss_kl_rev(a, a)[0] == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_forward(self):
        fS = np.array([[0.0, 0.0]])            # p = (0.5, 0.5)
        hfT = np.array([[0.0, math.log(3.0)]])  # q = (0.25, 0.75)
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert losses.loss_kl(fS, hfT)[0] == pytest.approx(expected, abs=1e-12)
        assert losses.loss_kl(fS, hfT)[0] == pytest.approx(0.14384, abs=1e-5)

    def test_closed_form_reverse(self):
        fS = np.array([[0.0, 0.0]])
        hfT = np.array([[0.0, math.log(3.0)]])
        expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert losses.loss_kl_rev(fS, hfT)[0] == pytest.approx(expected, abs=1e-12)
        assert losses.loss_kl_rev(fS, hfT)[0] == pytest.approx(0.13081, abs=1e-5)

    def test_asymmetry(self):
        rng = np.random.default_rng(3)
        a, b = rand_batch(rng), rand_batch(rng)
        assert losses.loss_kl(a, b)[0] != pytest.approx(losses.loss_kl_rev(a, b)[0], abs=1e-6)

    @given(a=batches, b=batches)
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, a, b):
        assert losses.loss_kl(a, b)[0] >= -1e-12
        assert losses.loss_kl_rev(a, b)[0] >= -1e-12

    def test_zero_iff_softmax_equal(self):
        a = rand_batch(np.random.default_rng(4))
        shifted = a + np.array([[1.0]] * a.shape[0])  # same softmax rows
        assert losses.loss_kl(a, shifted)[0] == pytest.approx(0.0, abs=1e-12)
        perturbed = a.copy()
        perturbed[0, 0] += 0.5
        assert losses.loss_kl(a, perturbed)[0] > 1e-12


class TestNorm:
    def test_identity(self):
        a = rand_batch(np.random.default_rng(5))
        assert losses.loss_norm(a, a)[0] == 0.0

    def test_mean_shift_algebra(self):
        rng = np.random.default_rng(6)
        a = rand_batch(rng, b=8, k=4)
        c = 0.75
        value, _ = losses.loss_norm(a, a + c)
        assert value == pytest.approx(4 * c * c / 8)

    def test_single_batch_permutation_invariance(self):
        rng = np.random.default_rng(7)
        a, b = rand_batch(rng), rand_batch(rng)
        perm = rng.permutation(a.shape[0])
        assert losses.loss_norm(a, b)[0] == pytest.approx(losses.loss_norm(a[perm], b)[0])
        assert losses.loss_norm(a, b)[0] == pytest.approx(losses.loss_norm(a, b[perm])[0])

    def test_not_translation_invariant(self):
        rng = np.random.default_rng(8)
        a, b = rand_batch(rng), rand_batch(rng)
        assert losses.loss_norm(a, b + 3.0)[0] != pytest.approx(losses.loss_norm(a, b)[0])

    def test_batch_too_small(self):
        with pytest.raises(losses.BatchTooSmall):
            losses.loss_norm(np.zeros((1, 3)), np.zeros((1, 3)))


class TestCoral:
    def test_identity(self):
        a = rand_batch(np.random.default_rng(9))
        assert losses.loss_coral(a, a)[0] == 0.0

    def test_swap_symmetry(self):
        rng = np.random.default_rng(10)
        a, b = rand_batch(rng), rand_batch(rng)
        assert losses.loss_coral(a, b)[0] == pytest.approx(losses.loss_coral(b, a)[0])

    def test_hand_value(self):
        fS = np.array([[0.0], [2.0]])
        hfT = np.array([[0.0], [0.0]])
        assert losses.loss_coral(fS, hfT)[0] == pytest.approx(1.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        a, b = rand_batch(rng), rand_batch(rng)
        shift = rng.normal(size=(1, a.shape[1]))
        assert losses.loss_coral(a, b + shift)[0] == pytest.approx(
            losses.loss_coral(a, b)[0], rel=1e-12)

    def test_batch_too_small(self):
        with pytest.raises(losses.BatchTooSmall):
            losses.loss_coral(np.zeros((1, 3)), np.zeros((1, 3)))


@given(a=batches, b=batches)
@settings(max_examples=40, deadline=None)
def test_simultaneous_permutation_invariance(a, b):
    perm = np.random.default_rng(0).permutation(a.shape[0])
    for fn in (losses.loss_mse, losses.loss_norm, losses.loss_coral):
        assert fn(a, b)[0] == pytest.approx(fn(a[perm], b[perm])[0], abs=1e-9)


ALIGNED_KINDS = [kind for kind, loss in losses.LOSSES.items()
                 if loss.align is not None]


class TestGradients:
    @pytest.mark.parametrize("kind", ALIGNED_KINDS)
    def test_finite_difference(self, kind):
        fn = losses.LOSSES[kind].align
        for seed in range(5):
            rng = np.random.default_rng(seed)
            fS = rand_batch(rng, b=5, k=4)
            hfT = rand_batch(rng, b=5, k=4)
            err = grad_check(lambda h: fn(fS, h), hfT, eps=1e-5)
            assert err < 1e-4, f"{kind} seed {seed}: {err}"


class TestLossTable:
    def test_unknown_kind_rejected(self):
        with pytest.raises(losses.LossError):
            losses.alignment("mmd", np.zeros((2, 3)), np.zeros((2, 3)))

    def test_cls_aligns_nothing(self):
        hfT = rand_batch(np.random.default_rng(7), b=3)
        with pytest.raises(losses.LossError, match="'cls'"):
            losses.alignment("cls", hfT, hfT)
        assert not losses.LOSSES["cls"].needs_sampler
        assert all(losses.LOSSES[kind].needs_sampler for kind in ALIGNED_KINDS)

    @pytest.mark.parametrize("kind", ALIGNED_KINDS)
    def test_min_rows_is_what_alignment_accepts(self, kind):
        rows = losses.LOSSES[kind].min_rows
        rng = np.random.default_rng(13)
        fS, hfT = rand_batch(rng, b=rows), rand_batch(rng, b=rows)
        value, _ = losses.alignment(kind, fS, hfT)
        assert math.isfinite(value)
        if rows > 1:
            with pytest.raises(losses.BatchTooSmall):
                losses.alignment(kind, fS[:rows - 1], hfT[:rows - 1])


def coral_oracle(fS, hfT):
    """CORAL from the explicit d x d covariances (B - 1 normalised)."""
    b, d = fS.shape
    a = fS - fS.mean(axis=0)
    c = hfT - hfT.mean(axis=0)
    cs = a.T @ a / (b - 1)
    ct = c.T @ c / (b - 1)
    diff = cs - ct
    return (diff * diff).sum() / (4.0 * d * d), c @ (ct - cs) / ((b - 1) * d * d)


class TestCoralGramForm:
    @given(b=st.integers(2, 12), d=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    @settings(max_examples=80, deadline=None)
    def test_matches_covariance_oracle(self, b, d, seed, scale):
        rng = np.random.default_rng(seed)
        fS = scale * rng.normal(size=(b, d)) + rng.normal(size=d)
        hfT = scale * rng.uniform(0.2, 2.0) * rng.normal(size=(b, d))
        value, grad = losses.loss_coral(fS, hfT)
        want_value, want_grad = coral_oracle(fS, hfT)
        assert abs(value - want_value) <= 1e-10 * want_value
        assert np.linalg.norm(grad - want_grad) <= 1e-10 * np.linalg.norm(want_grad)

    def test_equal_batches_exactly_zero(self):
        a = rand_batch(np.random.default_rng(14), b=9, k=20)
        value, grad = losses.loss_coral(a, a)
        assert value == 0.0 and not grad.any()

    def test_memory_stays_off_d_squared(self):
        # one 8192 x 8192 float64 covariance alone is 512 MiB
        rng = np.random.default_rng(15)
        fS, hfT = rng.normal(size=(16, 8192)), rng.normal(size=(16, 8192))
        tracemalloc.start()
        try:
            losses.loss_coral(fS, hfT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
