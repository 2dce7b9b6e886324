"""TUTA-style encoder: bi-dimensional coordinate tree attention.

Wang et al. [39] position cells on a bi-dimensional coordinate tree and
bias attention by tree distance, so structurally close cells interact more
strongly without hard masking.  On flat relational tables the tree reduces
to two levels (rows × columns); the bias is ``-strength · distance`` with
distance 0 within a cell, 1 along a shared row/column or through the root
(context), and 2 otherwise — see
:func:`repro.models.structure.tree_distance_bias`.
"""

from __future__ import annotations

import numpy as np

from .base import TableEncoder
from .config import EncoderConfig
from .structure import dense_mask, tree_distance_bias
from ..nn import Tensor
from ..serialize import BatchedFeatures, Serializer
from ..text import WordPieceTokenizer

__all__ = ["Tuta"]


class Tuta(TableEncoder):
    """Soft structure awareness through tree-distance attention biases."""

    model_name = "tuta"
    uses_row_embeddings = True
    uses_column_embeddings = True
    uses_role_embeddings = True

    def __init__(self, config: EncoderConfig, tokenizer: WordPieceTokenizer,
                 rng: np.random.Generator,
                 serializer: Serializer | None = None,
                 distance_strength: float = 1.0) -> None:
        if distance_strength < 0:
            raise ValueError("distance_strength must be non-negative")
        super().__init__(config, tokenizer, rng, serializer=serializer)
        self.distance_strength = distance_strength

    def contextualize(self, embedded: Tensor,
                      batch: BatchedFeatures) -> Tensor:
        """One stack under the padding mask and the tree-distance bias."""
        return self.encoder(embedded, mask=dense_mask(batch),
                            bias=tree_distance_bias(
                                batch, strength=self.distance_strength))
