import numpy as np
import pytest

from lrsdag import sampling
from lrsdag.seeding import derive_rng


# rows that fit N(0, 1) exactly in every dimension: mean 0, population std 1
UNIT_ROWS = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])


class TestFitGaussian:
    """The diagonal Gaussian IndirectSampler fits to f(S)."""

    def test_hand_statistics(self):
        sampler = sampling.IndirectSampler(np.array([[0.0], [2.0]]), derive_rng(0))
        assert sampler.mean[0] == pytest.approx(1.0)
        assert sampler.std[0] == pytest.approx(1.0)

    def test_degenerate_rows_hit_floor(self):
        sampler = sampling.IndirectSampler(np.full((5, 3), 7.25), derive_rng(0))
        np.testing.assert_array_equal(sampler.mean, np.full(3, 7.25))
        np.testing.assert_array_equal(sampler.std, np.full(3, sampling.STD_FLOOR))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(32, 6))
        perm = rng.permutation(32)
        a = sampling.IndirectSampler(feats, derive_rng(0))
        b = sampling.IndirectSampler(feats[perm], derive_rng(0))
        np.testing.assert_allclose(a.mean, b.mean, rtol=1e-12)
        np.testing.assert_allclose(a.std, b.std, rtol=1e-12)

    def test_too_few_examples(self):
        with pytest.raises(sampling.TooFewExamples):
            sampling.IndirectSampler(np.zeros((1, 4)), derive_rng(0))


class TestIndirectSampler:
    def test_floor_std_collapses_to_mean(self):
        sampler = sampling.IndirectSampler(np.full((4, 2), 3.0), derive_rng(0, "indirect"))
        draws = sampler.draw(50)
        assert draws.shape == (50, 2)
        assert np.max(np.abs(draws - 3.0)) < 1e-6

    def test_clt_mean_bound(self):
        # 4-sigma Monte-Carlo bound on the empirical mean: 4 / sqrt(n).
        sampler = sampling.IndirectSampler(UNIT_ROWS[:, :1], derive_rng(1, "indirect"))
        draws = sampler.draw(100_000)
        assert abs(draws.mean()) < 4 / np.sqrt(100_000)

    def test_determinism(self):
        a = sampling.IndirectSampler(UNIT_ROWS, derive_rng(7, "s")).draw(16)
        b = sampling.IndirectSampler(UNIT_ROWS, derive_rng(7, "s")).draw(16)
        np.testing.assert_array_equal(a, b)
        # N(0, 1) draws are the generator's own normals
        np.testing.assert_array_equal(a, derive_rng(7, "s").standard_normal((16, 3)))

    def test_rejects_empty_batch(self):
        with pytest.raises(sampling.SamplingError):
            sampling.IndirectSampler(UNIT_ROWS, derive_rng(0)).draw(0)


class TestRandomSampler:
    def test_exhaustive_draw_is_permutation(self):
        feats = np.arange(20.0).reshape(10, 2)
        sampler = sampling.RandomSampler(feats, derive_rng(2, "random"))
        draws = sampler.draw(10)
        np.testing.assert_array_equal(
            draws[np.lexsort(draws.T)], feats[np.lexsort(feats.T)])

    def test_singleton_source_repeats(self):
        sampler = sampling.RandomSampler(np.array([[1.5, -2.0]]), derive_rng(3))
        draws = sampler.draw(8)
        np.testing.assert_array_equal(draws, np.tile([[1.5, -2.0]], (8, 1)))

    def test_membership(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(40, 5))
        sampler = sampling.RandomSampler(feats, derive_rng(4, "random"))
        rows = {row.tobytes() for row in feats}
        for row in sampler.draw(24):
            assert row.tobytes() in rows

    def test_determinism(self):
        feats = np.random.default_rng(5).normal(size=(30, 4))
        a = sampling.RandomSampler(feats, derive_rng(9, "r")).draw(12)
        b = sampling.RandomSampler(feats, derive_rng(9, "r")).draw(12)
        np.testing.assert_array_equal(a, b)

    def test_empty_source(self):
        with pytest.raises(sampling.EmptySource):
            sampling.RandomSampler(np.zeros((0, 3)), derive_rng(0))


class TestFactory:
    def test_indirect_recovers_fitted_params(self):
        rng = np.random.default_rng(6)
        feats = rng.normal(loc=2.0, scale=1.5, size=(500, 3))
        mean, std = feats.mean(axis=0), feats.std(axis=0)
        sampler = sampling.make_sampler("indirect", feats, derive_rng(11, "fit"))
        draws = sampler.draw(100_000)
        mean_bound = 4 * std / np.sqrt(100_000)
        std_bound = 4 * std / np.sqrt(2 * 100_000)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < mean_bound)
        assert np.all(np.abs(draws.std(axis=0) - std) < std_bound)

    def test_random_kind(self):
        sampler = sampling.make_sampler("random", np.zeros((4, 2)), derive_rng(0))
        assert isinstance(sampler, sampling.RandomSampler)
        assert sampling.SAMPLER_KINDS == ("indirect", "random")

    @pytest.mark.parametrize("kind", sampling.SAMPLER_KINDS)
    def test_rejects_non_matrix(self, kind):
        with pytest.raises(sampling.SamplingError, match="N x k matrix"):
            sampling.make_sampler(kind, np.zeros(4), derive_rng(0))

    def test_unknown_kind(self):
        with pytest.raises(sampling.SamplingError):
            sampling.make_sampler("mixture", np.zeros((4, 2)), derive_rng(0))
