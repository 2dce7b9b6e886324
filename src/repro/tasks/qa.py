"""Cell-selection question answering (the TAPAS demo task of §2.1).

The question rides along as serialization context; a cell-selection head
scores every token, scores are pooled per cell, and the top-scoring cell is
the predicted answer.  Training supervises token scores with binary cross
entropy: tokens inside gold answer cells are positives.
"""

from __future__ import annotations

import numpy as np

from .common import Prediction, predict_in_batches
from ..corpus import QAExample
from ..models import CellSelectionHead, TableEncoder, Tapas
from ..nn import Module, Tensor

__all__ = ["CellSelectionQA"]


class CellSelectionQA(Module):
    """Encoder + cell-selection head fine-tuned on QA examples."""

    task_name = "qa"

    def __init__(self, encoder: TableEncoder, rng: np.random.Generator) -> None:
        super().__init__()
        self.encoder = encoder
        # Reuse TAPAS's built-in head when present so its pretrained
        # parameters carry over; otherwise attach a fresh one.
        if isinstance(encoder, Tapas):
            self.head = encoder.cell_selection
        else:
            self.head = CellSelectionHead(encoder.config.dim, rng)

    # ------------------------------------------------------------------
    def _forward(self, examples: list[QAExample]):
        tables = [e.table for e in examples]
        questions = [e.question for e in examples]
        batch, serialized = self.encoder.batch(tables, questions)
        hidden = self.encoder(batch)
        scores = self.head.token_scores(hidden)
        return scores, serialized

    def loss(self, examples: list[QAExample]) -> Tensor:
        """Binary cross entropy on cell tokens (positives = answer cells)."""
        scores, serialized = self._forward(examples)
        targets = np.zeros(scores.shape)
        weights = np.zeros(scores.shape)
        for i, (example, table) in enumerate(zip(examples, serialized)):
            gold = set(example.answer_coordinates)
            for coord, (start, end) in table.cell_spans.items():
                weights[i, start:end] = 1.0
                if coord in gold:
                    targets[i, start:end] = 1.0
        # Stable masked BCE via logits.
        total_weight = weights.sum()
        if total_weight == 0:
            return scores.sum() * 0.0
        positive = scores.relu() - scores * Tensor(targets)
        softplus = ((-(scores.relu() + (-scores).relu())).exp() + 1.0).log()
        per_token = (positive + softplus) * Tensor(weights)
        return per_token.sum() * (1.0 / total_weight)

    # ------------------------------------------------------------------
    # Inference (TaskPredictor protocol)
    # ------------------------------------------------------------------
    def _predict_batch(self, examples: list[QAExample]) -> list[Prediction]:
        tables = [e.table for e in examples]
        questions = [e.question for e in examples]
        hidden, serialized = self.encoder.infer_hidden(tables, questions)
        scores = self.head.token_scores(hidden)
        predictions: list[Prediction] = []
        for i, table in enumerate(serialized):
            best, best_score = None, -np.inf
            cells = 0
            for coord, (start, end) in table.cell_spans.items():
                if end <= start:
                    continue
                cells += 1
                score = float(scores.data[i, start:end].mean())
                if score > best_score:
                    best, best_score = coord, score
            predictions.append(Prediction(
                label=best, score=0.0 if best is None else best_score,
                extras={"cells_scored": cells}))
        return predictions

    def predict(self, examples: list[QAExample], *,
                batch_size: int = 16) -> list[Prediction]:
        """Top-scoring cell per example (``label=None`` without cells)."""
        return predict_in_batches(self, examples, batch_size,
                                  self._predict_batch)

    def evaluate(self, examples: list[QAExample]) -> dict[str, float]:
        """Cell hit rate and denotation-value hit rate."""
        predictions = [p.label for p in self.predict(examples)]
        cell_hits = value_hits = 0
        for example, predicted in zip(examples, predictions):
            if predicted is None:
                continue
            if predicted in set(example.answer_coordinates):
                cell_hits += 1
            predicted_text = example.table.cell(*predicted).text()
            gold_texts = {example.table.cell(r, c).text()
                          for r, c in example.answer_coordinates}
            if predicted_text in gold_texts:
                value_hits += 1
        count = len(examples) or 1
        return {
            "cell_accuracy": cell_hits / count,
            "value_accuracy": value_hits / count,
        }
