"""Central finite-difference check of hand-written gradients, shared by the
layer, loss and acceptance tests."""

import numpy as np

from lrsdag.tensor_core import ShapeMismatch


def grad_check(fn, x, eps=1e-5, max_coords=None, rng=None):
    """Compare an analytic gradient against central finite differences.

    `fn(x)` must return `(value, grad)` with `grad` shaped like `x` and must
    be deterministic. Returns the max over checked coordinates of
    |analytic - numeric| / max(1, |numeric|). When `max_coords` is given and
    the tensor is larger, a seeded random subset of coordinates is checked.
    """
    if not 0.0 < eps <= 1e-2:
        raise ValueError("eps must lie in (0, 1e-2]")
    x = np.ascontiguousarray(x, dtype=np.float64)
    _, grad = fn(x)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != x.shape:
        raise ShapeMismatch(f"grad shape {grad.shape} != input shape {x.shape}")
    n = x.size
    if max_coords is not None and n > max_coords:
        rng = rng or np.random.default_rng(0)
        coords = rng.choice(n, size=max_coords, replace=False)
    else:
        coords = range(n)
    flat_grad = grad.reshape(-1)
    worst = 0.0
    for i in coords:
        xp = x.copy()
        xm = x.copy()
        xp.reshape(-1)[i] += eps
        xm.reshape(-1)[i] -= eps
        numeric = (fn(xp)[0] - fn(xm)[0]) / (2.0 * eps)
        err = abs(flat_grad[i] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
