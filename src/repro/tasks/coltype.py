"""Column type prediction — table metadata understanding (§2.1).

The column's header is hidden (so the label cannot leak); the model pools
the column's cell representations and classifies over the label set of
semantic column types (attribute names like "capital" or "hours-per-week").
"""

from __future__ import annotations

import numpy as np

from .common import (
    Prediction,
    pooled_span,
    predict_in_batches,
)
from ..corpus import ColumnTypeExample
from ..eval import accuracy, macro_f1
from ..models import ClassificationHead, TableEncoder
from ..nn import Module, Tensor, cross_entropy
from ..pretrain import IGNORE_INDEX

__all__ = ["ColumnTypePredictor", "build_label_set"]


def build_label_set(examples: list[ColumnTypeExample]) -> list[str]:
    """Sorted distinct labels of a training set."""
    return sorted({e.label for e in examples})


class ColumnTypePredictor(Module):
    """Pooled-column classifier over a closed label set."""

    task_name = "coltype"

    def __init__(self, encoder: TableEncoder, labels: list[str],
                 rng: np.random.Generator) -> None:
        if not labels:
            raise ValueError("label set is empty")
        super().__init__()
        self.encoder = encoder
        self.labels = list(labels)
        self.label_to_id = {l: i for i, l in enumerate(self.labels)}
        self.head = ClassificationHead(encoder.config.dim, len(self.labels), rng)

    def _column_vectors(self, examples: list[ColumnTypeExample]) -> Tensor:
        hidden, serialized = self.encoder.hidden([e.table for e in examples])
        pooled = []
        for i, (example, table) in enumerate(zip(examples, serialized)):
            spans = [span for (row, col), span in table.cell_spans.items()
                     if col == example.column]
            if spans:
                vectors = [pooled_span(hidden, i, span) for span in spans]
                stacked = Tensor.stack(vectors)
                pooled.append(stacked.mean(axis=0))
            else:
                pooled.append(hidden[i, 0])
        return Tensor.stack(pooled)

    def logits(self, examples: list[ColumnTypeExample]) -> Tensor:
        return self.head(self._column_vectors(examples))

    def loss(self, examples: list[ColumnTypeExample]) -> Tensor:
        targets = np.array(
            [self.label_to_id.get(e.label, IGNORE_INDEX) for e in examples],
            dtype=np.int64,
        )
        return cross_entropy(self.logits(examples), targets,
                             ignore_index=IGNORE_INDEX)

    def _predict_batch(self, examples: list[ColumnTypeExample]
                       ) -> list[Prediction]:
        logits = self.logits(examples).data
        probabilities = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probabilities /= probabilities.sum(axis=-1, keepdims=True)
        indices = logits.argmax(axis=-1)
        return [
            Prediction(label=self.labels[int(index)],
                       score=float(probabilities[i, index]))
            for i, index in enumerate(indices)
        ]

    def predict(self, examples: list[ColumnTypeExample], *,
                batch_size: int = 16) -> list[Prediction]:
        """Predicted semantic column types with softmax confidence."""
        return predict_in_batches(self, examples, batch_size,
                                  self._predict_batch)

    def evaluate(self, examples: list[ColumnTypeExample]) -> dict[str, float]:
        predictions = [p.label for p in self.predict(examples)]
        golds = [e.label for e in examples]
        return {
            "accuracy": accuracy(predictions, golds),
            "macro_f1": macro_f1(predictions, golds),
        }
