"""Pretraining loss computation over gathered target rows."""

from __future__ import annotations

import numpy as np

from .masking import IGNORE_INDEX
from ..nn import Tensor, cross_entropy

__all__ = ["mlm_loss", "mer_loss", "masked_accuracy"]


def mlm_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Cross entropy of ``(n, vocab)`` logits at the MLM target rows.

    ``targets`` are the ``n`` gathered MLM targets; 0 when ``n`` is 0.
    """
    return cross_entropy(logits, targets, ignore_index=IGNORE_INDEX)


def mer_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Cross entropy of ``(n, entities)`` logits at the MER target rows.

    ``targets`` are the ``n`` gathered MER targets; 0 when ``n`` is 0.
    """
    return cross_entropy(logits, targets, ignore_index=IGNORE_INDEX)


def masked_accuracy(logits: Tensor | np.ndarray, targets: np.ndarray) -> float:
    """Fraction of masked positions predicted exactly (NaN-free).

    Returns 0.0 when nothing is masked, so training logs stay plottable.
    """
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    keep = targets != IGNORE_INDEX
    if not keep.any():
        return 0.0
    predictions = data.argmax(axis=-1)
    return float((predictions[keep] == targets[keep]).mean())
