"""Table NLI / fact verification (TabFact-style, §2.1).

The statement is concatenated as context; a two-way classifier over the
[CLS] representation decides entailed vs refuted.
"""

from __future__ import annotations

import numpy as np

from .common import Prediction, predict_in_batches
from ..corpus import NLIExample
from ..eval import accuracy, precision_recall_f1
from ..models import ClassificationHead, TableEncoder
from ..nn import Module, Tensor, cross_entropy

__all__ = ["NliClassifier"]


class NliClassifier(Module):
    """Binary entailment classifier over (statement, table) pairs."""

    task_name = "nli"

    def __init__(self, encoder: TableEncoder, rng: np.random.Generator) -> None:
        super().__init__()
        self.encoder = encoder
        self.head = ClassificationHead(encoder.config.dim, 2, rng)

    def logits(self, examples: list[NLIExample]) -> Tensor:
        tables = [e.table for e in examples]
        statements = [e.statement for e in examples]
        batch, _ = self.encoder.batch(tables, statements)
        hidden = self.encoder(batch)
        return self.head(hidden[:, 0])

    def loss(self, examples: list[NLIExample]) -> Tensor:
        targets = np.array([e.label for e in examples], dtype=np.int64)
        return cross_entropy(self.logits(examples), targets)

    def _predict_batch(self, examples: list[NLIExample]) -> list[Prediction]:
        tables = [e.table for e in examples]
        statements = [e.statement for e in examples]
        hidden, _ = self.encoder.infer_hidden(tables, statements)
        logits = self.head(hidden[:, 0]).data
        probabilities = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probabilities /= probabilities.sum(axis=-1, keepdims=True)
        labels = logits.argmax(axis=-1)
        return [
            Prediction(label=int(label), score=float(probabilities[i, label]),
                       extras={"probabilities": probabilities[i].tolist()})
            for i, label in enumerate(labels)
        ]

    def predict(self, examples: list[NLIExample], *,
                batch_size: int = 16) -> list[Prediction]:
        """Entail(1)/refute(0) verdict with its softmax confidence."""
        return predict_in_batches(self, examples, batch_size,
                                  self._predict_batch)

    def evaluate(self, examples: list[NLIExample]) -> dict[str, float]:
        predictions = [p.label for p in self.predict(examples)]
        golds = [e.label for e in examples]
        precision, recall, f1 = precision_recall_f1(predictions, golds)
        return {
            "accuracy": accuracy(predictions, golds),
            "precision": precision,
            "recall": recall,
            "f1": f1,
        }
