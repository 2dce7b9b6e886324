"""The op chains the fused kernels replaced, kept as the tests' reference.

``layer_norm``, ``linear`` and ``attention_softmax`` each run, as one op,
a chain of elementary tape ops that earlier releases composed in
``repro.nn``; ``take_rows``' gradient used to scatter with ``np.add.at``.
The chains live on here, composed from the same ``Tensor`` ops as
before, so tests can compare the fused ops against them byte for byte
(:func:`reference_chains` patches them back into a running model).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.nn import DEFAULT_DTYPE, Tensor
from repro.nn.attention import NEG_INF
from repro.nn.backend import OPS, OpDef

__all__ = [
    "reference_layer_norm", "reference_linear",
    "reference_attention_softmax", "reference_take_rows_vjp",
    "reference_chains",
]


def reference_layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
                         eps: float) -> Tensor:
    """The 16-op LayerNorm chain: mean, variance, centring, rescale."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normed = (x - mu) * ((var + eps) ** -0.5)
    return normed * gain + bias


def reference_linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ W + b`` as a ``matmul`` node and an ``add`` node."""
    return x @ weight + bias


def reference_attention_softmax(scores: Tensor, scale: float,
                                bias: np.ndarray | None = None,
                                mask: np.ndarray | None = None) -> Tensor:
    """Scale, add the bias, fill the masked scores, softmax: up to 4 ops."""
    scores = scores * scale
    if bias is not None:
        scores = scores + Tensor(np.asarray(bias, dtype=DEFAULT_DTYPE))
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        while mask.ndim < 4:
            mask = mask[np.newaxis]
        scores = scores.masked_fill(mask, NEG_INF)
    return scores.softmax(axis=-1)


def reference_take_rows_vjp(grad: np.ndarray, ctx: tuple,
                            needs: tuple) -> tuple:
    """``take_rows``' gradient as an ``np.add.at`` scatter into zeros."""
    shape, idx = ctx
    full = np.zeros(shape, dtype=DEFAULT_DTYPE)
    np.add.at(full, idx.reshape(-1), grad.reshape(-1, shape[1]))
    return (full,)


@contextmanager
def reference_chains(monkeypatch) -> Iterator[None]:
    """Run every layer on the reference chains inside the block.

    ``Tensor.layer_norm``, ``Tensor.linear`` and
    ``Tensor.attention_softmax`` become the compositions above, and the
    ``take_rows`` op gets the ``np.add.at`` gradient; the patches are
    undone on exit.
    """
    with monkeypatch.context() as patch:
        patch.setattr(Tensor, "layer_norm", reference_layer_norm)
        patch.setattr(Tensor, "linear", reference_linear)
        patch.setattr(Tensor, "attention_softmax",
                      reference_attention_softmax)
        take_rows = OPS["take_rows"]
        patch.setitem(OPS, "take_rows", OpDef(
            "take_rows", take_rows.forward, reference_take_rows_vjp))
        yield
