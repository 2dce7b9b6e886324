"""Transformer encoder / decoder stacks (pre-LN variant).

These are the backbone shared by every model in :mod:`repro.models`.  The
encoder accepts an optional structural attention mask per layer, which is
how TURL's visibility matrix and MATE's sparse heads are injected without
changing the backbone code.
"""

from __future__ import annotations

import numpy as np

from .attention import MultiHeadAttention, causal_mask
from .layers import Dropout, LayerNorm, Linear
from .module import Module, ModuleList
from .tensor import Tensor

__all__ = ["FeedForward", "EncoderLayer", "Encoder", "DecoderLayer", "Decoder"]


class FeedForward(Module):
    """Position-wise two-layer MLP with GELU."""

    def __init__(self, dim: int, hidden_dim: int, rng: np.random.Generator,
                 dropout: float = 0.0) -> None:
        super().__init__()
        self.expand = Linear(dim, hidden_dim, rng)
        self.contract = Linear(hidden_dim, dim, rng)
        self.dropout = Dropout(dropout, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.contract(self.dropout(self.expand(x).gelu()))


class EncoderLayer(Module):
    """Pre-LN encoder block: attention and MLP with residual connections."""

    def __init__(self, dim: int, num_heads: int, hidden_dim: int,
                 rng: np.random.Generator, dropout: float = 0.0) -> None:
        super().__init__()
        self.attention = MultiHeadAttention(dim, num_heads, rng, dropout=dropout)
        self.feed_forward = FeedForward(dim, hidden_dim, rng, dropout=dropout)
        self.norm_attention = LayerNorm(dim)
        self.norm_feed_forward = LayerNorm(dim)
        self.dropout = Dropout(dropout, rng)

    def forward(self, x: Tensor, mask: np.ndarray | None = None,
                bias: np.ndarray | None = None) -> Tensor:
        x = x + self.dropout(self.attention(self.norm_attention(x), mask=mask,
                                            bias=bias))
        x = x + self.dropout(self.feed_forward(self.norm_feed_forward(x)))
        return x


class Encoder(Module):
    """A stack of encoder layers with a final layer norm.

    Attention weights of every layer are kept on the layer objects
    (``layer.attention.last_attention``) so the visualization utilities in
    :mod:`repro.viz` can inspect them after a forward pass.
    """

    def __init__(self, dim: int, num_heads: int, hidden_dim: int, num_layers: int,
                 rng: np.random.Generator, dropout: float = 0.0) -> None:
        super().__init__()
        self.layers = ModuleList([
            EncoderLayer(dim, num_heads, hidden_dim, rng, dropout=dropout)
            for _ in range(num_layers)
        ])
        self.final_norm = LayerNorm(dim)

    def forward(self, x: Tensor, mask: np.ndarray | None = None,
                bias: np.ndarray | None = None) -> Tensor:
        for layer in self.layers:
            x = layer(x, mask=mask, bias=bias)
        return self.final_norm(x)

    def attention_maps(self) -> list[np.ndarray]:
        """Per-layer attention weights from the most recent forward pass."""
        return [layer.attention.last_attention for layer in self.layers]


class DecoderLayer(Module):
    """Pre-LN decoder block with causal self-attention and cross-attention."""

    def __init__(self, dim: int, num_heads: int, hidden_dim: int,
                 rng: np.random.Generator, dropout: float = 0.0) -> None:
        super().__init__()
        self.self_attention = MultiHeadAttention(dim, num_heads, rng, dropout=dropout)
        self.cross_attention = MultiHeadAttention(dim, num_heads, rng, dropout=dropout)
        self.feed_forward = FeedForward(dim, hidden_dim, rng, dropout=dropout)
        self.norm_self = LayerNorm(dim)
        self.norm_cross = LayerNorm(dim)
        self.norm_feed_forward = LayerNorm(dim)

    def forward(self, x: Tensor, memory: Tensor,
                self_mask: np.ndarray | None = None,
                memory_mask: np.ndarray | None = None) -> Tensor:
        x = x + self.self_attention(self.norm_self(x), mask=self_mask)
        x = x + self.cross_attention(self.norm_cross(x), memory=memory, mask=memory_mask)
        x = x + self.feed_forward(self.norm_feed_forward(x))
        return x


class Decoder(Module):
    """Autoregressive decoder stack used by the TAPEX-style executor."""

    def __init__(self, dim: int, num_heads: int, hidden_dim: int, num_layers: int,
                 rng: np.random.Generator, dropout: float = 0.0) -> None:
        super().__init__()
        self.layers = ModuleList([
            DecoderLayer(dim, num_heads, hidden_dim, rng, dropout=dropout)
            for _ in range(num_layers)
        ])
        self.final_norm = LayerNorm(dim)

    def forward(self, x: Tensor, memory: Tensor,
                memory_mask: np.ndarray | None = None) -> Tensor:
        seq_len = x.shape[1]
        self_mask = causal_mask(seq_len)
        for layer in self.layers:
            x = layer(x, memory, self_mask=self_mask, memory_mask=memory_mask)
        return self.final_norm(x)
