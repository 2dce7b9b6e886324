"""Loss functions and small functional helpers used by training code."""

from __future__ import annotations

import numpy as np

from .backend import DEFAULT_DTYPE
from .tensor import Tensor

__all__ = [
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "mse_loss",
    "cosine_similarity",
    "in_batch_contrastive_loss",
]


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: int | None = None) -> Tensor:
    """Mean token-level cross entropy.

    Dispatches to the fused ``cross_entropy`` op (log-softmax,
    target gather and ignore-index weighting in one kernel); gradients
    are bit-identical to the op chain earlier releases built here.

    Parameters
    ----------
    logits:
        Tensor of shape ``(..., num_classes)``.
    targets:
        Integer array of shape ``logits.shape[:-1]``.
    ignore_index:
        Target value whose positions contribute zero loss (used for padding
        and for unmasked positions in MLM).
    """
    targets = np.asarray(targets, dtype=np.int64)
    num_classes = logits.shape[-1]
    flat_logits = logits.reshape(-1, num_classes)
    flat_targets = targets.reshape(-1)

    if ignore_index is not None and not (flat_targets != ignore_index).any():
        return Tensor(0.0)
    return flat_logits.cross_entropy(flat_targets, ignore_index=ignore_index)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically stable mean BCE: ``max(x,0) - x*t + log(1 + exp(-|x|))``."""
    targets_t = Tensor(np.asarray(targets, dtype=DEFAULT_DTYPE))
    abs_logits = logits.relu() + (-logits).relu()
    softplus = ((-abs_logits).exp() + 1.0).log()
    return (logits.relu() - logits * targets_t + softplus).mean()


def mse_loss(predictions: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error."""
    diff = predictions - Tensor(np.asarray(targets, dtype=DEFAULT_DTYPE))
    return (diff * diff).mean()


def cosine_similarity(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Row-wise cosine similarity between two ``(n, d)`` tensors."""
    a_norm = ((a * a).sum(axis=-1, keepdims=True) + eps) ** 0.5
    b_norm = ((b * b).sum(axis=-1, keepdims=True) + eps) ** 0.5
    return ((a / a_norm) * (b / b_norm)).sum(axis=-1)


def in_batch_contrastive_loss(queries: Tensor, keys: Tensor,
                              temperature: float = 0.07) -> Tensor:
    """InfoNCE with in-batch negatives for the retrieval bi-encoder.

    ``queries[i]`` should match ``keys[i]``; every other key in the batch is
    a negative.
    """
    q_norm = ((queries * queries).sum(axis=-1, keepdims=True) + 1e-8) ** 0.5
    k_norm = ((keys * keys).sum(axis=-1, keepdims=True) + 1e-8) ** 0.5
    q = queries / q_norm
    k = keys / k_norm
    logits = (q @ k.swapaxes(-1, -2)) * (1.0 / temperature)
    targets = np.arange(logits.shape[0])
    return cross_entropy(logits, targets)
