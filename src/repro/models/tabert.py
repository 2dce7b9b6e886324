"""TaBERT-style encoder: content snapshot + vertical self-attention.

Yin et al. [41] contribute two mechanisms, both reproduced here:

1. a *content snapshot* — before serialization, keep only the rows most
   relevant to the utterance (token-overlap heuristic), implemented by
   :func:`repro.tables.select_relevant_rows`;
2. *vertical self-attention layers* — extra layers after the base stack in
   which cell tokens attend only within their own column, letting
   information flow vertically across rows.
"""

from __future__ import annotations

import numpy as np

from .base import TableEncoder
from .config import EncoderConfig
from .structure import vertical_mask
from ..nn import Encoder, Tensor
from ..serialize import BatchedFeatures, Serializer
from ..tables import Table, select_relevant_rows
from ..text import WordPieceTokenizer

__all__ = ["TaBert"]


class TaBert(TableEncoder):
    """Content-snapshot encoder with trailing vertical attention layers."""

    model_name = "tabert"
    uses_row_embeddings = True
    uses_column_embeddings = True
    uses_role_embeddings = True

    def __init__(self, config: EncoderConfig, tokenizer: WordPieceTokenizer,
                 rng: np.random.Generator,
                 serializer: Serializer | None = None,
                 snapshot_rows: int = 3,
                 vertical_layers: int = 1) -> None:
        super().__init__(config, tokenizer, rng, serializer=serializer)
        if snapshot_rows < 1:
            raise ValueError("snapshot_rows must be positive")
        self.snapshot_rows = snapshot_rows
        self.vertical_encoder = Encoder(
            dim=config.dim, num_heads=config.num_heads,
            hidden_dim=config.hidden_dim, num_layers=vertical_layers,
            rng=rng, dropout=config.dropout,
        )

    def prepare_table(self, table: Table, context: str | None) -> Table:
        """Content snapshot: keep the rows most relevant to the context."""
        query = context if context is not None else table.context.text()
        if not query:
            # No utterance: fall back to a prefix snapshot.
            if table.num_rows <= self.snapshot_rows:
                return table
            return table.subtable(row_indices=range(self.snapshot_rows))
        return select_relevant_rows(table, query, max_rows=self.snapshot_rows)

    def contextualize(self, embedded: Tensor,
                      batch: BatchedFeatures) -> Tensor:
        """The base stack, then the vertical layers under a column mask."""
        return self.vertical_encoder(super().contextualize(embedded, batch),
                                     mask=vertical_mask(batch))
