"""Adaptation objectives: a feature-alignment term over (reference source
features, encoded target features) plus the classification loss.

Every alignment function takes fS and hfT as (B, k) float64 batches (conv
features arrive flattened) and returns `(value, grad)` where `grad` is the
gradient with respect to hfT only. fS is a constant reference: it comes from
the frozen source pathway or from Gaussian samples, so no gradient flows
into it.  `LOSSES` names each objective once, with its alignment function.
"""

from dataclasses import dataclass

import numpy as np

from .tensor_core import ShapeMismatch, log_softmax


class LossError(Exception):
    pass


class BatchTooSmall(LossError):
    pass


def _check_pair(fS, hfT, min_batch=1):
    fS = np.asarray(fS, dtype=np.float64)
    hfT = np.asarray(hfT, dtype=np.float64)
    if fS.shape != hfT.shape or fS.ndim != 2:
        raise ShapeMismatch(f"expected equal (B, k) batches, got {fS.shape} and {hfT.shape}")
    if fS.shape[0] < min_batch:
        raise BatchTooSmall(f"need at least {min_batch} rows, got {fS.shape[0]}")
    return fS, hfT


def loss_mse(fS, hfT):
    """Mean over the batch of the squared L2 distance between paired rows."""
    fS, hfT = _check_pair(fS, hfT)
    b = fS.shape[0]
    diff = hfT - fS
    value = float((diff * diff).sum() / b)
    return value, 2.0 * diff / b


def loss_kl(fS, hfT):
    """Mean row-wise KL(softmax(fS) || softmax(hfT))."""
    fS, hfT = _check_pair(fS, hfT)
    if fS.shape[1] < 2:
        raise ShapeMismatch("KL needs feature dimension >= 2")
    b = fS.shape[0]
    log_p = log_softmax(fS)
    log_q = log_softmax(hfT)
    p = np.exp(log_p)
    value = float((p * (log_p - log_q)).sum() / b)
    grad = (np.exp(log_q) - p) / b
    return value, grad


def loss_kl_rev(fS, hfT):
    """Mean row-wise KL(softmax(hfT) || softmax(fS)); the reversed direction."""
    fS, hfT = _check_pair(fS, hfT)
    if fS.shape[1] < 2:
        raise ShapeMismatch("KL needs feature dimension >= 2")
    b = fS.shape[0]
    log_p = log_softmax(fS)
    log_q = log_softmax(hfT)
    q = np.exp(log_q)
    ratio = log_q - log_p
    row_kl = (q * ratio).sum(axis=1, keepdims=True)
    value = float(row_kl.sum() / b)
    grad = q * (ratio - row_kl) / b
    return value, grad


def loss_norm(fS, hfT):
    """Squared distance between batch means plus between batch stds, / B.

    Standard deviations are per-dimension population estimates (divide by B).
    """
    fS, hfT = _check_pair(fS, hfT, min_batch=2)
    b = fS.shape[0]
    mu_s, mu_t = fS.mean(axis=0), hfT.mean(axis=0)
    centered = hfT - mu_t
    sd_s = fS.std(axis=0)
    sd_t = hfT.std(axis=0)
    d_mu = mu_t - mu_s
    d_sd = sd_t - sd_s
    value = float((d_mu @ d_mu + d_sd @ d_sd) / b)
    # dmu_t/dx = 1/B; dsd_t/dx_ij = (x_ij - mu_j) / (B * sd_j), 0 where sd_j = 0
    sd_term = np.divide(d_sd, sd_t, out=np.zeros_like(sd_t), where=sd_t > 0)
    grad = (2.0 / (b * b)) * (d_mu + centered * sd_term)
    return value, grad


def loss_coral(fS, hfT):
    """Squared Frobenius distance between batch covariances, / (4 d^2).

    Covariances are centered by the batch mean and normalized by B - 1
    (Sun & Saenko, Deep CORAL).  The d x d covariances are never formed:
    with A and C the centered source and target batches, P = A + C and
    Q = A - C, the covariance difference is (P^T Q + Q^T P) / (2 (B - 1)),
    so value and gradient follow from B x B products.  That costs
    O(B^2 d) time and O(B d + B^2) memory instead of O(B d^2) and O(d^2),
    and equal batches give exactly 0 because Q is 0.
    """
    fS, hfT = _check_pair(fS, hfT, min_batch=2)
    b, d = fS.shape
    a = fS - fS.mean(axis=0)
    c = hfT - hfT.mean(axis=0)
    p, q = a + c, a - c
    qp = q @ p.T
    scale = (b - 1) * (b - 1) * d * d
    value = float(((p @ p.T) * (q @ q.T)).sum() + (qp * qp.T).sum()) / (8.0 * scale)
    grad = -((c @ p.T) @ q + (c @ q.T) @ p) / (2.0 * scale)
    return value, grad


@dataclass(frozen=True)
class Loss:
    """One adaptation objective: its report name, its alignment function
    (None for plain cls, which aligns nothing) and the fewest batch rows
    that function takes (batch statistics need 2)."""

    display: str
    align: object
    min_rows: int = 1

    @property
    def needs_sampler(self):
        return self.align is not None


LOSSES = {
    "cls": Loss("CLS", None),
    "cls_mse": Loss("CLS+MSE", loss_mse),
    "cls_kl": Loss("CLS+KL", loss_kl),
    "cls_norm": Loss("CLS+Norm", loss_norm, min_rows=2),
    "cls_kl_rev": Loss("CLS+KL-Rev", loss_kl_rev),
    "coral": Loss("CORAL", loss_coral, min_rows=2),
}

def alignment(kind, fS, hfT):
    """The alignment term of `kind`; LossError for a kind that aligns nothing
    (plain cls) or is unknown."""
    align = LOSSES[kind].align if kind in LOSSES else None
    if align is None:
        raise LossError(f"no alignment term for loss kind {kind!r}")
    return align(fS, hfT)
