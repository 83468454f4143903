"""Reference-feature samplers for the adaptation phase.

Alignment losses compare encoded target features against source
features f(s).  N1 is frozen during adaptation, so f(S) is a static
matrix computed once; a sampler turns that matrix into per-minibatch
reference batches.  Two strategies are provided: draw from a diagonal
Gaussian fitted to f(S), or resample rows of f(S) directly.
"""

import numpy as np

STD_FLOOR = 1e-8


class SamplingError(Exception):
    """Base class for sampler failures."""


class TooFewExamples(SamplingError):
    """Gaussian fitting needs at least two source examples."""


class EmptySource(SamplingError):
    """Random sampling needs a nonempty source feature set."""


def _source_matrix(source_features):
    feats = np.asarray(source_features, dtype=np.float64)
    if feats.ndim != 2:
        raise SamplingError(f"expected an N x k matrix, got shape {feats.shape}")
    return feats


def _check_batch(n):
    if n < 1:
        raise SamplingError(f"batch size must be positive, got {n}")


class IndirectSampler:
    """Draws reference features from a diagonal Gaussian fitted to f(S).

    The fit is the per-dimension mean and population standard deviation
    (divide by N), floored at STD_FLOOR so degenerate dimensions stay
    sampleable.

    Raises:
        TooFewExamples: if f(S) has fewer than two rows.
    """

    def __init__(self, source_features, rng):
        feats = _source_matrix(source_features)
        if feats.shape[0] < 2:
            raise TooFewExamples(f"need at least 2 examples, got {feats.shape[0]}")
        self.mean = feats.mean(axis=0)
        self.std = np.maximum(feats.std(axis=0), STD_FLOOR)
        self.rng = rng

    def draw(self, n):
        _check_batch(n)
        noise = self.rng.standard_normal((n, self.mean.shape[0]))
        return self.mean + noise * self.std


class RandomSampler:
    """Resamples rows of the cached source feature matrix.

    Rows are drawn uniformly without replacement within one call (one
    minibatch); successive calls draw independently, so features recur
    across minibatches.  If n exceeds the source size the draw falls
    back to replacement.
    """

    def __init__(self, source_features, rng):
        feats = _source_matrix(source_features)
        if feats.shape[0] == 0:
            raise EmptySource("source feature set is empty")
        self.features = feats
        self.rng = rng

    def draw(self, n):
        _check_batch(n)
        count = self.features.shape[0]
        idx = self.rng.choice(count, size=n, replace=n > count)
        return self.features[idx].copy()


SAMPLERS = {"indirect": IndirectSampler, "random": RandomSampler}

SAMPLER_KINDS = tuple(SAMPLERS)


def make_sampler(kind, source_features, rng):
    """Build a sampler of the given kind over cached source features."""
    if kind not in SAMPLERS:
        raise SamplingError(f"unknown sampler kind {kind!r}; choose from {SAMPLER_KINDS}")
    return SAMPLERS[kind](source_features, rng)
