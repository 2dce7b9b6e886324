"""Core neural layers: Linear, Embedding, LayerNorm, Dropout.

Layers compose ops through the :class:`Tensor` API only — no raw
``.data`` arithmetic (lint rule REPRO006) — so every op of a forward is
one the backward pass, the profiler and the tape sanitizer see.
"""

from __future__ import annotations

import numpy as np

from .backend import DEFAULT_DTYPE
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["Linear", "Embedding", "LayerNorm", "Dropout"]


def _xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Linear(Module):
    """Affine map ``y = x W + b`` applied to the last axis."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_xavier_uniform(rng, in_features, out_features))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if self.bias is None:
            return x @ self.weight
        return x.linear(self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator,
                 scale: float = 0.02) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(rng.normal(0.0, scale, size=(num_embeddings, dim)))

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        return self.weight.take_rows(ids)


class LayerNorm(Module):
    """Layer normalization over the last axis with learnable gain/bias."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gain = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        return x.layer_norm(self.gain, self.bias, self.eps)


class Dropout(Module):
    """Inverted dropout; identity when the module is in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        # Cast through the library-wide accumulation dtype rather than
        # relying on bool/float promotion.
        mask = (self._rng.random(x.shape) < keep).astype(DEFAULT_DTYPE) / keep
        return x * Tensor(mask)
