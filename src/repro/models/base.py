"""Base table encoder: embeddings, backbone, and the ``encode`` API.

``model.encode(table)`` is the third line of the paper's Fig. 2a snippet —
it returns a :class:`TableEncoding` with representations at every
granularity the survey discusses (token / cell / row / column / table),
which is what lets one backbone serve all downstream tasks (survey
dimension 4, "Output Model Representation").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from typing import Callable

from .config import EncoderConfig
from .structure import dense_mask
from ..nn import Dropout, Embedding, Encoder, LayerNorm, Module, Tensor
from ..serialize import (
    BatchedFeatures,
    RowMajorSerializer,
    SerializedTable,
    Serializer,
    TableFeatures,
    encode_features,
    pad_batch,
)
from ..tables import Table
from ..text import WordPieceTokenizer

__all__ = ["TableEncoding", "TableEncoder"]


@dataclass
class TableEncoding:
    """Multi-granularity numeric representation of one table.

    All arrays are plain numpy (inference is run under ``inference_mode``).
    """

    tokens: list[str]
    token_embeddings: np.ndarray                       # (seq, dim)
    table_embedding: np.ndarray                        # (dim,)
    cell_embeddings: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    row_embeddings: dict[int, np.ndarray] = field(default_factory=dict)
    column_embeddings: dict[int, np.ndarray] = field(default_factory=dict)
    serialized: SerializedTable | None = None

    @property
    def dim(self) -> int:
        return int(self.token_embeddings.shape[-1])

    def __len__(self) -> int:
        return len(self.tokens)


def _mean_span(hidden: np.ndarray, start: int, end: int) -> np.ndarray | None:
    if end <= start:
        return None
    return hidden[start:end].mean(axis=0)


class TableEncoder(Module):
    """Shared machinery for every model in the zoo.

    Subclasses toggle the structural embedding channels (row/column/role),
    override :meth:`attention_mask` to inject their attention pattern, and
    may override :meth:`prepare_table` (e.g. TaBERT's content snapshot).
    """

    model_name = "base"
    uses_row_embeddings = False
    uses_column_embeddings = False
    uses_role_embeddings = False

    # Optional repro.serve.EncodingCache reused across inference calls;
    # attach with set_encoding_cache.
    encoding_cache = None

    def __init__(self, config: EncoderConfig, tokenizer: WordPieceTokenizer,
                 rng: np.random.Generator,
                 serializer: Serializer | None = None) -> None:
        super().__init__()
        self.config = config
        self.tokenizer = tokenizer
        self.serializer = serializer or RowMajorSerializer(
            tokenizer, max_tokens=config.max_position)
        if self.serializer.max_tokens > config.max_position:
            raise ValueError("serializer budget exceeds max_position embeddings")

        self.token_embedding = Embedding(config.vocab_size, config.dim, rng)
        self.position_embedding = Embedding(config.max_position, config.dim, rng)
        if self.uses_row_embeddings:
            self.row_embedding = Embedding(config.max_rows + 1, config.dim, rng)
        if self.uses_column_embeddings:
            self.column_embedding = Embedding(config.max_columns + 1, config.dim, rng)
        if self.uses_role_embeddings:
            self.role_embedding = Embedding(config.num_roles, config.dim, rng)
        if config.numeric_features:
            # Magnitude-aware channel: [is_number, sign, log1p|v|] → dim.
            # Addresses the numeric-cell failure mode of hands-on §3.4.
            from ..nn import Linear
            self.numeric_projection = Linear(3, config.dim, rng)
        self.embedding_norm = LayerNorm(config.dim)
        self.embedding_dropout = Dropout(config.dropout, rng)
        self.encoder = Encoder(
            dim=config.dim, num_heads=config.num_heads,
            hidden_dim=config.hidden_dim, num_layers=config.num_layers,
            rng=rng, dropout=config.dropout,
        )

    # ------------------------------------------------------------------
    # Input preparation
    # ------------------------------------------------------------------
    def prepare_table(self, table: Table, context: str | None) -> Table:
        """Hook for input filtering before serialization (default: none)."""
        return table

    def serialize(self, table: Table, context: str | None = None) -> SerializedTable:
        """Serialize one table with this model's serializer."""
        prepared = self.prepare_table(table, context)
        return self.serializer.serialize(prepared, context=context)

    def features(self, serialized: SerializedTable,
                 table: Table | None = None) -> TableFeatures:
        """Per-token input arrays clamped to this model's embedding ranges."""
        return encode_features(
            serialized,
            max_row_id=self.config.max_rows,
            max_column_id=self.config.max_columns,
            table=table,
        )

    def batch(self, tables: list[Table],
              contexts: list[str] | None = None
              ) -> tuple[BatchedFeatures, list[SerializedTable]]:
        """Serialize and collate a list of tables (+optional contexts)."""
        if contexts is None:
            contexts = [None] * len(tables)
        serialized = [self.serialize(t, c) for t, c in zip(tables, contexts)]
        features = [self.features(s, table=t) for s, t in zip(serialized, tables)]
        return pad_batch(features, pad_id=self.tokenizer.vocab.pad_id), serialized

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def attention_mask(self, batch: BatchedFeatures) -> np.ndarray:
        """Structural block mask; vanilla models only mask padding."""
        return dense_mask(batch)

    def structure_arrays(self, batch: BatchedFeatures) -> dict[str, np.ndarray]:
        """Every batch-derived array the forward pass consumes.

        Subclasses override this (extending ``super()``'s dict) instead of
        computing masks/biases inline in ``forward``, so each model's
        structure lives in one place and :meth:`_forward_impl` reads it
        from ``arrays``.
        """
        return {"mask": self.attention_mask(batch)}

    def embed(self, batch: BatchedFeatures,
              arrays: dict[str, np.ndarray] | None = None) -> Tensor:
        """Sum the enabled embedding channels and normalize."""
        total = self.token_embedding(batch.token_ids) \
            + self.position_embedding(batch.positions)
        if self.uses_row_embeddings:
            total = total + self.row_embedding(batch.row_ids)
        if self.uses_column_embeddings:
            total = total + self.column_embedding(batch.column_ids)
        if self.uses_role_embeddings:
            total = total + self.role_embedding(batch.roles)
        if self.config.numeric_features:
            total = total + self.numeric_projection(
                Tensor(batch.numeric_features))
        return self.embedding_dropout(self.embedding_norm(total))

    def _forward_impl(self, batch: BatchedFeatures,
                      arrays: dict[str, np.ndarray]) -> Tensor:
        """The actual op graph; consumes only ``batch`` + ``arrays``."""
        return self.encoder(self.embed(batch, arrays), mask=arrays["mask"])

    def forward(self, batch: BatchedFeatures,
                arrays: dict[str, np.ndarray] | None = None) -> Tensor:
        """Hidden states of shape ``(batch, seq, dim)``.

        Template method: computes :meth:`structure_arrays` when not
        supplied, then runs :meth:`_forward_impl`.
        """
        if arrays is None:
            arrays = self.structure_arrays(batch)
        return self._forward_impl(batch, arrays)

    # ------------------------------------------------------------------
    # Inference API (Fig. 2a)
    # ------------------------------------------------------------------
    def set_encoding_cache(self, cache) -> None:
        """Attach (or detach with ``None``) a serve-layer encoding cache.

        Once attached, every :meth:`infer_hidden` call — and therefore
        every task ``predict`` path and :meth:`encode` — reuses hidden
        states for inputs it has already encoded under the current
        weights.
        """
        self.encoding_cache = cache

    def infer_hidden(
        self,
        tables: list[Table],
        contexts: list[str | None] | None = None,
        feature_hook: "Callable[[int, TableFeatures, SerializedTable], None] | None" = None,
    ) -> tuple[Tensor, list[SerializedTable]]:
        """Batched no-grad hidden states, served from the cache when attached.

        The inference twin of ``self(batch)``: serializes and featurizes
        each table, runs the transformer under
        :class:`~repro.nn.inference_mode` (no autograd tape), and returns
        a right-padded ``(batch, seq, dim)`` tensor plus the serialized
        tables for span lookup.  With an attached
        :class:`~repro.serve.EncodingCache`, previously seen inputs skip
        the encoder forward entirely.

        Parameters
        ----------
        feature_hook:
            Optional per-example mutation of the input features *before*
            hashing and the forward pass — e.g. the imputer masking the
            cell to fill.  Called as ``hook(index, features, serialized)``
            and expected to edit ``features`` in place, so the cache key
            reflects the mutated input.
        """
        if contexts is None:
            contexts = [None] * len(tables)
        if self.encoding_cache is None:
            serialized = [self.serialize(t, c)
                          for t, c in zip(tables, contexts)]
            features = [self.features(s, table=t)
                        for s, t in zip(serialized, tables)]
        else:
            # Repeated tables skip re-serialization too — on a cache-hit
            # workload, tokenization rivals the forward pass in cost.
            serialized, features = self.encoding_cache.features_for(
                self, tables, contexts)
        if feature_hook is not None:
            for i, (feats, ser) in enumerate(zip(features, serialized)):
                feature_hook(i, feats, ser)
        with self.inference():
            if self.encoding_cache is None:
                batch = pad_batch(features,
                                  pad_id=self.tokenizer.vocab.pad_id)
                data = self.forward(batch).data
                per_example = [data[i, : len(features[i])]
                               for i in range(len(features))]
            else:
                per_example = self.encoding_cache.hidden_for(self, features)
        seq_len = max(len(f) for f in features)
        hidden = np.zeros((len(features), seq_len, per_example[0].shape[-1]))
        for i, states in enumerate(per_example):
            hidden[i, : states.shape[0]] = states
        return Tensor(hidden), serialized

    def encode(self, table: Table, context: str | None = None) -> TableEncoding:
        """Encode one table into multi-granularity vectors (no gradients)."""
        hidden_batch, serialized_list = self.infer_hidden([table], [context])
        hidden = hidden_batch.data[0]
        serialized = serialized_list[0]

        cell_embeddings: dict[tuple[int, int], np.ndarray] = {}
        rows_acc: dict[int, list[np.ndarray]] = {}
        cols_acc: dict[int, list[np.ndarray]] = {}
        for (row, column), (start, end) in serialized.cell_spans.items():
            vector = _mean_span(hidden, start, end)
            if vector is None:
                continue
            cell_embeddings[(row, column)] = vector
            rows_acc.setdefault(row, []).append(vector)
            cols_acc.setdefault(column, []).append(vector)
        for column, (start, end) in serialized.header_spans.items():
            vector = _mean_span(hidden, start, end)
            if vector is not None:
                cols_acc.setdefault(column, []).append(vector)

        return TableEncoding(
            tokens=list(serialized.tokens),
            token_embeddings=hidden[: len(serialized)],
            table_embedding=hidden[0],  # [CLS]
            cell_embeddings=cell_embeddings,
            row_embeddings={r: np.mean(v, axis=0) for r, v in rows_acc.items()},
            column_embeddings={c: np.mean(v, axis=0) for c, v in cols_acc.items()},
            serialized=serialized,
        )

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Summary used by the Fig. 2a comparison bench."""
        return {
            "model": self.model_name,
            "serializer": self.serializer.name,
            "parameters": self.num_parameters(),
            "dim": self.config.dim,
            "layers": self.config.num_layers,
            "row_embeddings": self.uses_row_embeddings,
            "column_embeddings": self.uses_column_embeddings,
            "role_embeddings": self.uses_role_embeddings,
        }
