"""Sketch-based text-to-SQL semantic parsing (§2.1, WikiSQL-style).

The parser fills the sketch ``SELECT [agg](col) [WHERE col = value]``:

- aggregate: classifier over the [CLS] vector;
- select column / condition column: pointer scores over pooled header
  spans (so the architecture adapts to any table width);
- condition presence: binary head on [CLS];
- condition value: pointer scores over the pooled cell spans of the gold
  (training) or predicted (inference) condition column.

Predicted sketches are executed by the symbolic engine, giving the
denotation accuracy the WikiSQL literature reports.
"""

from __future__ import annotations

import numpy as np

from .common import (
    Prediction,
    pooled_span,
    predict_in_batches,
)
from ..corpus import Text2SqlExample
from ..eval import denotation_accuracy
from ..models import ClassificationHead, TableEncoder
from ..nn import Linear, Module, Tensor, cross_entropy
from ..sql import Aggregate, Comparator, Condition, ExecutionError, SelectQuery, execute

__all__ = ["SketchParser", "SKETCH_AGGREGATES"]

SKETCH_AGGREGATES = (Aggregate.NONE, Aggregate.COUNT, Aggregate.MIN, Aggregate.MAX)


class SketchParser(Module):
    """Pointer-network-style sketch filler on top of a table encoder."""

    task_name = "text2sql"

    def __init__(self, encoder: TableEncoder, rng: np.random.Generator) -> None:
        super().__init__()
        self.encoder = encoder
        dim = encoder.config.dim
        self.aggregate_head = ClassificationHead(dim, len(SKETCH_AGGREGATES), rng)
        self.has_condition_head = ClassificationHead(dim, 2, rng)
        self.select_scorer = Linear(dim, 1, rng)
        self.condition_scorer = Linear(dim, 1, rng)
        self.value_scorer = Linear(dim, 1, rng)

    # ------------------------------------------------------------------
    def _encode(self, examples: list[Text2SqlExample]):
        return self.encoder.hidden([e.table for e in examples],
                                   [e.question for e in examples])

    @staticmethod
    def _header_spans(serialized) -> list[tuple[int, tuple[int, int]]]:
        return sorted(serialized.header_spans.items())

    def _span_logits(self, hidden: Tensor, batch_index: int,
                     spans: list[tuple[int, int]], scorer: Linear) -> Tensor:
        vectors = Tensor.stack(
            [pooled_span(hidden, batch_index, span) for span in spans])
        return scorer(vectors).reshape(len(spans))

    # ------------------------------------------------------------------
    def loss(self, examples: list[Text2SqlExample]) -> Tensor:
        hidden, serialized = self._encode(examples)
        losses: list[Tensor] = []

        agg_targets = np.array(
            [SKETCH_AGGREGATES.index(e.sql.aggregate) for e in examples],
            dtype=np.int64,
        )
        losses.append(cross_entropy(self.aggregate_head(hidden[:, 0]), agg_targets))

        cond_targets = np.array(
            [1 if e.sql.conditions else 0 for e in examples], dtype=np.int64)
        losses.append(cross_entropy(self.has_condition_head(hidden[:, 0]),
                                    cond_targets))

        for i, (example, table) in enumerate(zip(examples, serialized)):
            headers = self._header_spans(table)
            if not headers:
                continue
            columns = [c for c, _ in headers]
            spans = [span for _, span in headers]
            try:
                select_index = columns.index(
                    example.table.column_index(example.sql.select_column))
            except (KeyError, ValueError):
                continue
            select_logits = self._span_logits(hidden, i, spans, self.select_scorer)
            losses.append(cross_entropy(
                select_logits.reshape(1, -1), np.array([select_index])))

            if example.sql.conditions:
                condition = example.sql.conditions[0]
                try:
                    cond_col = example.table.column_index(condition.column)
                    cond_index = columns.index(cond_col)
                except (KeyError, ValueError):
                    continue
                cond_logits = self._span_logits(hidden, i, spans,
                                                self.condition_scorer)
                losses.append(cross_entropy(
                    cond_logits.reshape(1, -1), np.array([cond_index])))

                value_cells = sorted(
                    (row, span) for (row, col), span in table.cell_spans.items()
                    if col == cond_col)
                gold_rows = [r for r, _ in value_cells
                             if example.table.cell(r, cond_col).text()
                             == str(condition.value)]
                if value_cells and gold_rows:
                    value_logits = self._span_logits(
                        hidden, i, [span for _, span in value_cells],
                        self.value_scorer)
                    target = [r for r, _ in value_cells].index(gold_rows[0])
                    losses.append(cross_entropy(
                        value_logits.reshape(1, -1), np.array([target])))

        total = losses[0]
        for extra in losses[1:]:
            total = total + extra
        return total * (1.0 / len(losses))

    # ------------------------------------------------------------------
    # Inference (TaskPredictor protocol)
    # ------------------------------------------------------------------
    def _predict_batch(self, examples: list[Text2SqlExample]
                       ) -> list[Prediction]:
        hidden, serialized = self._encode(examples)
        predictions: list[Prediction] = []
        for i, (example, table) in enumerate(zip(examples, serialized)):
            headers = self._header_spans(table)
            if not headers:
                predictions.append(Prediction(label=None))
                continue
            columns = [c for c, _ in headers]
            spans = [span for _, span in headers]

            agg_index = int(self.aggregate_head(hidden[i, 0]
                                                .reshape(1, -1)).data.argmax())
            aggregate = SKETCH_AGGREGATES[agg_index]
            select_logits = self._span_logits(hidden, i, spans,
                                              self.select_scorer).data
            select_probs = np.exp(select_logits - select_logits.max())
            select_probs /= select_probs.sum()
            select_index = int(select_logits.argmax())
            select_col = columns[select_index]

            conditions: tuple[Condition, ...] = ()
            has_cond = int(self.has_condition_head(
                hidden[i, 0].reshape(1, -1)).data.argmax())
            if has_cond:
                cond_logits = self._span_logits(hidden, i, spans,
                                                self.condition_scorer).data
                cond_col = columns[int(cond_logits.argmax())]
                value_cells = sorted(
                    (row, span) for (row, col), span
                    in table.cell_spans.items() if col == cond_col)
                if value_cells:
                    value_logits = self._span_logits(
                        hidden, i, [span for _, span in value_cells],
                        self.value_scorer).data
                    row = value_cells[int(value_logits.argmax())][0]
                    value = example.table.cell(row, cond_col).text()
                    conditions = (Condition(
                        example.table.header[cond_col],
                        Comparator.EQ, value),)
            predictions.append(Prediction(
                label=SelectQuery(example.table.header[select_col],
                                  aggregate, conditions),
                score=float(select_probs[select_index])))
        return predictions

    def predict(self, examples: list[Text2SqlExample], *,
                batch_size: int = 16) -> list[Prediction]:
        """Predicted sketches (``label=None`` without named headers).

        ``score`` is the select-column softmax confidence.
        """
        return predict_in_batches(self, examples, batch_size,
                                  self._predict_batch)

    def evaluate(self, examples: list[Text2SqlExample]) -> dict[str, float]:
        """Sketch exact-match and executed denotation accuracy."""
        predictions = [p.label for p in self.predict(examples)]
        exact = 0
        predicted_denotations, gold_denotations = [], []
        for example, predicted in zip(examples, predictions):
            if predicted == example.sql:
                exact += 1
            if predicted is None:
                predicted_denotations.append(["<none>"])
            else:
                try:
                    predicted_denotations.append(execute(predicted, example.table))
                except ExecutionError:
                    predicted_denotations.append(["<error>"])
            gold_denotations.append(list(example.denotation))
        count = len(examples) or 1
        return {
            "sketch_accuracy": exact / count,
            "denotation_accuracy": denotation_accuracy(
                predicted_denotations, gold_denotations),
        }
