"""TABBIE-style encoder: parallel row and column transformers.

Iida et al. [21] encode a table twice — one transformer sees each row as a
sequence, one sees each column — and represent every cell as the average
of its row-wise and column-wise embeddings.  Here the two views share the
embedding layer but run separate stacks under row-restricted and
column-restricted attention masks; outputs are averaged.
"""

from __future__ import annotations

import numpy as np

from .base import TableEncoder
from .config import EncoderConfig
from .structure import horizontal_mask, vertical_mask
from ..nn import Encoder, Tensor
from ..serialize import BatchedFeatures, Serializer
from ..text import WordPieceTokenizer

__all__ = ["Tabbie"]


class Tabbie(TableEncoder):
    """Dual-view encoder: row-attention stack ∥ column-attention stack."""

    model_name = "tabbie"
    uses_row_embeddings = True
    uses_column_embeddings = True
    uses_role_embeddings = True

    def __init__(self, config: EncoderConfig, tokenizer: WordPieceTokenizer,
                 rng: np.random.Generator,
                 serializer: Serializer | None = None) -> None:
        super().__init__(config, tokenizer, rng, serializer=serializer)
        # The base ``self.encoder`` becomes the row-view stack; add the
        # column-view twin.
        self.column_encoder = Encoder(
            dim=config.dim, num_heads=config.num_heads,
            hidden_dim=config.hidden_dim, num_layers=config.num_layers,
            rng=rng, dropout=config.dropout,
        )

    def contextualize(self, embedded: Tensor,
                      batch: BatchedFeatures) -> Tensor:
        """Mean of the row view and the column view of the same tokens."""
        row_view = self.encoder(embedded, mask=horizontal_mask(batch))
        column_view = self.column_encoder(embedded,
                                          mask=vertical_mask(batch))
        return (row_view + column_view) * 0.5
