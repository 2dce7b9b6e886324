"""TURL-style encoder: entity channel, visibility matrix, MLM + MER heads.

Deng et al. [11] represent entity cells with dedicated entity embeddings,
restrict attention with a *visibility matrix* (a cell attends to its row,
its column, headers and the table context), and pretrain with two
objectives the hands-on session (§3.3) walks through: masked language
modeling over text tokens and masked entity recovery (MER) over the entity
vocabulary.
"""

from __future__ import annotations

import numpy as np

from .base import TableEncoder
from .config import EncoderConfig
from .heads import EntityRecoveryHead, MlmHead
from .structure import visibility_mask
from ..nn import Embedding, Tensor
from ..serialize import BatchedFeatures, Serializer
from ..text import WordPieceTokenizer

__all__ = ["Turl"]


class Turl(TableEncoder):
    """Entity-aware encoder with TURL's visibility matrix and dual heads."""

    model_name = "turl"
    uses_row_embeddings = True
    uses_column_embeddings = True
    uses_role_embeddings = True

    def __init__(self, config: EncoderConfig, tokenizer: WordPieceTokenizer,
                 rng: np.random.Generator,
                 serializer: Serializer | None = None) -> None:
        if config.num_entities < 1:
            raise ValueError("TURL requires config.num_entities > 0 "
                             "(the entity vocabulary size)")
        super().__init__(config, tokenizer, rng, serializer=serializer)
        # Slot 0 is the no-entity slot; KB ids are stored offset by one.
        self.entity_embedding = Embedding(config.num_entities + 1, config.dim, rng)
        self.mlm_head = MlmHead(config.dim, self.token_embedding.weight, rng)
        self.mer_head = EntityRecoveryHead(config.dim, self.entity_embedding.weight, rng)

    def attention_mask(self, batch: BatchedFeatures) -> np.ndarray:
        return visibility_mask(batch)

    def structure_arrays(self, batch: BatchedFeatures) -> dict[str, np.ndarray]:
        arrays = super().structure_arrays(batch)
        # Clamp KB ids into the embedding range *here*, with the other
        # batch-derived arrays, rather than in embed.
        arrays["entity_slots"] = np.minimum(batch.entity_ids,
                                            self.config.num_entities)
        return arrays

    def embed(self, batch: BatchedFeatures,
              arrays: dict[str, np.ndarray] | None = None) -> Tensor:
        """Standard channels plus the entity embedding for linked cells."""
        slots = (arrays or {}).get("entity_slots")
        if slots is None:
            slots = np.minimum(batch.entity_ids, self.config.num_entities)
        total = self.token_embedding(batch.token_ids) \
            + self.position_embedding(batch.positions) \
            + self.row_embedding(batch.row_ids) \
            + self.column_embedding(batch.column_ids) \
            + self.role_embedding(batch.roles) \
            + self.entity_embedding(slots)
        if self.config.numeric_features:
            total = total + self.numeric_projection(Tensor(batch.numeric_features))
        return self.embedding_dropout(self.embedding_norm(total))
