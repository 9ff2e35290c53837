"""Loss functions for GNN training (vertex classification is the paper's
downstream task; link prediction uses binary cross-entropy)."""

from __future__ import annotations

import numpy as np

from .ops import log_softmax
from .tensor import Tensor, _as_tensor

__all__ = ["cross_entropy", "nll_loss", "binary_cross_entropy_with_logits", "accuracy"]


def cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Mean cross-entropy of ``logits`` (N, C) against integer ``targets`` (N,).

    ``mask`` optionally restricts the loss to a boolean subset of rows
    (transductive training splits in vertex classification).
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ValueError(f"targets shape {targets.shape} incompatible with logits {logits.shape}")
    log_probs = log_softmax(logits, axis=-1)
    return nll_loss(log_probs, targets, mask)


def nll_loss(log_probs: Tensor, targets: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Negative log-likelihood over (already log-softmaxed) probabilities."""
    log_probs = _as_tensor(log_probs)
    targets = np.asarray(targets, dtype=np.int64)
    n, c = log_probs.shape
    if np.any(targets < 0) or np.any(targets >= c):
        raise ValueError("target class out of range")
    rows = np.arange(n)
    # The weights and the loss take the dtype of the log-probabilities: a
    # wider loss would re-promote the whole backward through its seed.
    dtype = log_probs.data.dtype
    if mask is None:
        weight = np.ones(n, dtype=dtype)
    else:
        weight = np.asarray(mask, dtype=dtype)
        if weight.shape != (n,):
            raise ValueError(f"mask shape {weight.shape} does not match {n} rows")
    denom = max(weight.sum(), 1.0)
    picked = log_probs.data[rows, targets]
    out_data = np.asarray(-(picked * weight).sum() / denom)

    def backward(g):
        grad = np.zeros_like(log_probs.data)
        grad[rows, targets] = -weight / denom
        return (grad * g,)

    return Tensor._make(out_data, (log_probs,), backward)


def binary_cross_entropy_with_logits(logits: Tensor, targets) -> Tensor:
    """Numerically stable BCE on raw logits (link-prediction objective)."""
    logits = _as_tensor(logits)
    x = logits.data
    t = np.asarray(targets if not isinstance(targets, Tensor) else targets.data,
                   dtype=x.dtype)
    out_data = np.asarray(np.mean(np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x)))))

    def backward(g):
        # Numerically stable sigmoid (avoids exp overflow for large |x|).
        sig = np.empty_like(x)
        pos = x >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        sig[~pos] = ex / (1.0 + ex)
        return (g * (sig - t) / x.size,)

    return Tensor._make(out_data, (logits,), backward)


def accuracy(logits: Tensor, targets: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Classification accuracy of argmax predictions."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    pred = data.argmax(axis=-1)
    targets = np.asarray(targets)
    correct = pred == targets
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            return 0.0
        correct = correct[mask]
    return float(correct.mean())
