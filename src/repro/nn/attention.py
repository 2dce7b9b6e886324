"""Multi-head attention with pluggable structural masks.

The surveyed table transformers differ mostly in *which positions may attend
to which*:

- vanilla BERT: full bidirectional attention;
- TURL: a visibility matrix restricting cells to their own row/column plus
  the textual context;
- MATE: sparse attention where some heads see only their row and the others
  only their column.

All variants are expressed here through a boolean *block mask* — an array
broadcastable to ``(batch, heads, query, key)`` where ``True`` means "may
NOT attend".  Masked scores get a large negative constant before softmax,
inside the one ``attention_softmax`` op.
"""

from __future__ import annotations

import math

import numpy as np

from .backend import NEG_INF
from .layers import Dropout, Linear
from .module import Module
from .tensor import Tensor

__all__ = ["MultiHeadAttention", "NEG_INF"]


class MultiHeadAttention(Module):
    """Scaled dot-product multi-head attention.

    Supports self-attention (``forward(x)``) and cross-attention
    (``forward(x, memory=encoder_states)``) for the TAPEX-style decoder.
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator,
                 dropout: float = 0.0) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query = Linear(dim, dim, rng)
        self.key = Linear(dim, dim, rng)
        self.value = Linear(dim, dim, rng)
        self.output = Linear(dim, dim, rng)
        self.dropout = Dropout(dropout, rng)
        self.last_attention: np.ndarray | None = None

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: Tensor) -> Tensor:
        batch, _, seq, _ = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, self.dim)

    def forward(
        self,
        x: Tensor,
        memory: Tensor | None = None,
        mask: np.ndarray | None = None,
        bias: np.ndarray | None = None,
    ) -> Tensor:
        """Attend from ``x`` to ``memory`` (defaults to ``x``).

        Parameters
        ----------
        mask:
            Boolean array broadcastable to ``(batch, heads, q_len, k_len)``;
            ``True`` blocks attention.
        bias:
            Additive score bias broadcastable to the same shape (TUTA-style
            tree-distance biases); applied before masking.
        """
        source = memory if memory is not None else x
        q = self._split_heads(self.query(x))
        k = self._split_heads(self.key(source))
        v = self._split_heads(self.value(source))

        weights = (q @ k.swapaxes(-1, -2)).attention_softmax(
            1.0 / math.sqrt(self.head_dim), bias=bias, mask=mask)
        self.last_attention = weights.data
        weights = self.dropout(weights)
        context = weights @ v
        return self.output(self._merge_heads(context))


def causal_mask(seq_len: int) -> np.ndarray:
    """Upper-triangular block mask for autoregressive decoding."""
    return np.triu(np.ones((seq_len, seq_len), dtype=bool), k=1)


def padding_mask(lengths: np.ndarray, seq_len: int) -> np.ndarray:
    """Block mask hiding padded key positions.

    Parameters
    ----------
    lengths:
        1-D array of valid lengths per batch element.
    seq_len:
        Padded sequence length.

    Returns
    -------
    Boolean array of shape ``(batch, 1, 1, seq_len)``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    positions = np.arange(seq_len)
    blocked = positions[np.newaxis, :] >= lengths[:, np.newaxis]
    return blocked[:, np.newaxis, np.newaxis, :]


__all__ += ["causal_mask", "padding_mask"]
