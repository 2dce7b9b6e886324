"""Data imputation — the hands-on session's fine-tuning task (§3.4).

Two formulations are provided, matching how the exercise treats its two
corpora:

- :class:`ValueImputer` — closed-vocabulary cell population: the model
  pools the blanked cell's representation and classifies over the value
  vocabulary observed in training data.  Works for any table (WikiTables
  and GitTables alike); numeric cells make the vocabulary explode, which is
  precisely the numeric-table failure mode E5 measures.
- :class:`EntityImputer` — TURL-style: recover the cell's *entity* with
  the masked-entity-recovery head, available when the encoder is a
  :class:`~repro.models.Turl`.
"""

from __future__ import annotations

import numpy as np

from .common import (
    Prediction,
    pooled_span,
    predict_in_batches,
)
from ..corpus import ImputationExample
from ..eval import accuracy, macro_f1
from ..models import ClassificationHead, TableEncoder, Turl
from ..nn import Module, Tensor, cross_entropy
from ..pretrain import IGNORE_INDEX

__all__ = ["ValueImputer", "EntityImputer", "build_value_vocabulary",
           "build_value_vocabulary_from_tables"]


def build_value_vocabulary(examples: list[ImputationExample],
                           max_size: int | None = None) -> list[str]:
    """Distinct gold values in frequency order (ties by first appearance)."""
    counts: dict[str, int] = {}
    order: dict[str, int] = {}
    for index, example in enumerate(examples):
        counts[example.answer_text] = counts.get(example.answer_text, 0) + 1
        order.setdefault(example.answer_text, index)
    values = sorted(counts, key=lambda v: (-counts[v], order[v]))
    return values[:max_size] if max_size else values


def build_value_vocabulary_from_tables(tables, max_size: int | None = None,
                                       text_only: bool = False) -> list[str]:
    """Candidate values = distinct cell texts of a training corpus.

    Wider than :func:`build_value_vocabulary` (which only sees blanked
    answers); this is the realistic candidate set an imputation system
    derives from its training tables.
    """
    counts: dict[str, int] = {}
    order: dict[str, int] = {}
    position = 0
    for table in tables:
        for _, _, cell in table.iter_cells():
            if cell.is_empty or (text_only and cell.is_numeric):
                continue
            text = cell.text()
            counts[text] = counts.get(text, 0) + 1
            order.setdefault(text, position)
            position += 1
    values = sorted(counts, key=lambda v: (-counts[v], order[v]))
    return values[:max_size] if max_size else values


class _ImputerBase(Module):
    """Shared blanked-cell preparation and span lookup.

    The blanked cell's tokens are replaced with ``[MASK]`` before the
    forward pass, so the model can tell the *hole to fill* apart from
    cells that are genuinely missing in the data ([EMPTY]).
    """

    def __init__(self, encoder: TableEncoder) -> None:
        super().__init__()
        self.encoder = encoder

    def _pooled(self, examples: list[ImputationExample]) -> Tensor:
        """Pooled vectors of each example's blanked cell, ``(batch, dim)``.

        The ``[MASK]`` substitution happens through ``hidden``'s feature
        hook, so a cache key covers the masked span — repeated queries
        against the same (table, cell) hit, different cells of the same
        table do not collide.
        """
        mask_id = self.encoder.tokenizer.vocab.mask_id

        def blank(i: int, serialized) -> tuple[int, int]:
            example = examples[i]
            return serialized.cell_spans.get((example.row, example.column),
                                             (0, 0))

        def mask_blank(i, features, serialized):
            start, end = blank(i, serialized)
            features.token_ids[start:end] = mask_id

        hidden, serialized = self.encoder.hidden(
            [e.table for e in examples], feature_hook=mask_blank)
        return Tensor.stack([pooled_span(hidden, i, blank(i, s))
                             for i, s in enumerate(serialized)])


class ValueImputer(_ImputerBase):
    """Classify the blanked cell over a closed value vocabulary."""

    task_name = "imputation"

    def __init__(self, encoder: TableEncoder, value_vocabulary: list[str],
                 rng: np.random.Generator) -> None:
        if not value_vocabulary:
            raise ValueError("value vocabulary is empty")
        super().__init__(encoder)
        self.values = list(value_vocabulary)
        self.value_to_id = {v: i for i, v in enumerate(self.values)}
        self.head = ClassificationHead(encoder.config.dim, len(self.values), rng)

    def logits(self, examples: list[ImputationExample]) -> Tensor:
        """Value-vocabulary logits, ``(batch, |vocabulary|)``."""
        return self.head(self._pooled(examples))

    def loss(self, examples: list[ImputationExample]) -> Tensor:
        targets = np.array(
            [self.value_to_id.get(e.answer_text, IGNORE_INDEX) for e in examples],
            dtype=np.int64,
        )
        return cross_entropy(self.logits(examples), targets,
                             ignore_index=IGNORE_INDEX)

    def _predict_batch(self, examples: list[ImputationExample]
                       ) -> list[Prediction]:
        logits = self.logits(examples).data
        probabilities = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probabilities /= probabilities.sum(axis=-1, keepdims=True)
        indices = logits.argmax(axis=-1)
        return [
            Prediction(label=self.values[int(index)],
                       score=float(probabilities[i, index]))
            for i, index in enumerate(indices)
        ]

    def predict(self, examples: list[ImputationExample], *,
                batch_size: int = 16) -> list[Prediction]:
        """Predicted value strings with their softmax confidence."""
        return predict_in_batches(self, examples, batch_size,
                                  self._predict_batch)

    def evaluate(self, examples: list[ImputationExample]) -> dict[str, float]:
        """Accuracy and macro-F1 over gold values (hands-on §3.4 metric)."""
        predictions = [p.label for p in self.predict(examples)]
        golds = [e.answer_text for e in examples]
        return {
            "accuracy": accuracy(predictions, golds),
            "macro_f1": macro_f1(predictions, golds),
            "coverage": float(np.mean([g in self.value_to_id for g in golds]))
            if golds else 0.0,
        }


class EntityImputer(_ImputerBase):
    """Recover the blanked cell's entity with TURL's MER head."""

    task_name = "entity_imputation"

    def __init__(self, encoder: Turl) -> None:
        if not isinstance(encoder, Turl):
            raise TypeError("EntityImputer requires a Turl encoder")
        super().__init__(encoder)

    def _entity_logits(self, examples: list[ImputationExample]) -> Tensor:
        return self.encoder.mer_head(self._pooled(examples))

    def loss(self, examples: list[ImputationExample]) -> Tensor:
        targets = np.array(
            [e.answer_entity_id + 1 if e.answer_entity_id is not None
             else IGNORE_INDEX for e in examples],
            dtype=np.int64,
        )
        return cross_entropy(self._entity_logits(examples), targets,
                             ignore_index=IGNORE_INDEX)

    def _predict_batch(self, examples: list[ImputationExample]
                       ) -> list[Prediction]:
        logits = self._entity_logits(examples).data
        probabilities = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probabilities /= probabilities.sum(axis=-1, keepdims=True)
        slots = logits.argmax(axis=-1)
        return [
            Prediction(label=int(slot) - 1 if int(slot) > 0 else None,
                       score=float(probabilities[i, slot]))
            for i, slot in enumerate(slots)
        ]

    def predict(self, examples: list[ImputationExample], *,
                batch_size: int = 16) -> list[Prediction]:
        """Predicted KB entity ids (``label=None`` for the no-entity slot)."""
        return predict_in_batches(self, examples, batch_size,
                                  self._predict_batch)

    def evaluate(self, examples: list[ImputationExample]) -> dict[str, float]:
        scored = [e for e in examples if e.answer_entity_id is not None]
        if not scored:
            return {"accuracy": 0.0, "macro_f1": 0.0}
        predictions = [p.label for p in self.predict(scored)]
        golds = [e.answer_entity_id for e in scored]
        return {
            "accuracy": accuracy(predictions, golds),
            "macro_f1": macro_f1(predictions, golds),
        }
