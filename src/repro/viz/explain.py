"""Model-output justification (§2.4: "model usage remains a black box").

The survey notes only a minority of systems expose a justification of
their output.  This module provides two post-hoc explanation methods for
any :class:`~repro.models.TableEncoder`-based task model:

- **gradient × input saliency** — exact input attribution through the
  autograd tape: how much each input token (and, pooled, each cell)
  contributed to a scalar model output;
- **attention attribution** — mean attention mass a chosen query position
  (e.g. [CLS]) places on each cell, averaged over layers and heads.

Both aggregate token scores into *cell-level* attributions, the unit a
database user reasons about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..models import TableEncoder
from ..nn import Tensor
from ..serialize import BatchedFeatures, SerializedTable
from ..tables import Table

__all__ = ["CellAttribution", "gradient_saliency", "attention_attribution",
           "explain_scalar", "render_attribution"]


@dataclass
class CellAttribution:
    """Per-cell relevance scores for one model decision."""

    table: Table
    scores: dict[tuple[int, int], float]
    method: str

    def top_cells(self, k: int = 3) -> list[tuple[tuple[int, int], float]]:
        """The ``k`` most relevant cells, highest first."""
        ranked = sorted(self.scores.items(), key=lambda item: -item[1])
        return ranked[:k]

    def normalized(self) -> "CellAttribution":
        """Scores rescaled to sum to 1 (if any are positive)."""
        total = sum(max(0.0, s) for s in self.scores.values())
        if total <= 0:
            return self
        return CellAttribution(
            self.table,
            {c: max(0.0, s) / total for c, s in self.scores.items()},
            self.method,
        )


def _pool_token_scores(token_scores: np.ndarray,
                       serialized: SerializedTable) -> dict[tuple[int, int], float]:
    scores: dict[tuple[int, int], float] = {}
    for coord, (start, end) in serialized.cell_spans.items():
        if end > start:
            scores[coord] = float(token_scores[start:end].mean())
    return scores


def explain_scalar(model: TableEncoder, batch: BatchedFeatures,
                   scalar_fn: Callable[[Tensor], Tensor]) -> np.ndarray:
    """Gradient × input saliency per token for one scalar output.

    ``scalar_fn`` maps the encoder hidden states ``(B, T, D)`` to the
    scalar being explained (a logit, a cell score, a similarity).  Those
    are the states ``model(batch)`` computes, through every stack, mask
    and bias of the family, split at the embedding output whose gradient
    the saliency reads.  Returns per-token saliency of shape ``(B, T)``.
    """
    was_training = model.training
    model.eval()
    try:
        model.zero_grad()
        embedded = model.embed(batch)
        hidden = model.contextualize(embedded, batch)
        scalar = scalar_fn(hidden)
        if scalar.data.size != 1:
            raise ValueError("scalar_fn must reduce to a single value")
        scalar.backward(np.ones_like(scalar.data))
        if embedded.grad is None:
            raise RuntimeError("no gradient reached the embeddings")
        inputs = embedded.numpy()
        saliency = np.abs(embedded.grad * inputs).sum(axis=-1)
    finally:
        model.zero_grad()
        if was_training:
            model.train()
    return saliency


def gradient_saliency(model: TableEncoder, table: Table,
                      context: str | None = None,
                      scalar_fn: Callable[[Tensor], Tensor] | None = None
                      ) -> CellAttribution:
    """Cell-level gradient×input attribution for one table.

    By default explains the norm-like scalar ``sum(cls ** 2)`` — "what
    shaped this table's representation"; pass ``scalar_fn`` to explain a
    task output instead (e.g. an NLI logit).
    """
    batch, serialized = model.batch([table], [context])
    if scalar_fn is None:
        def scalar_fn(hidden: Tensor) -> Tensor:  # noqa: F811 - default probe
            cls = hidden[:, 0]
            return (cls * cls).sum()
    token_scores = explain_scalar(model, batch, scalar_fn)[0]
    return CellAttribution(table, _pool_token_scores(token_scores,
                                                     serialized[0]),
                           method="gradient-x-input")


def attention_attribution(model: TableEncoder, table: Table,
                          context: str | None = None,
                          query_index: int = 0) -> CellAttribution:
    """Mean attention a query position pays to each cell.

    ``query_index=0`` explains the [CLS] pooled representation.  Averages
    over all layers and heads of the most recent stack.
    """
    batch, serialized = model.batch([table], [context])
    was_training = model.training
    model.eval()
    try:
        model(batch)
    finally:
        if was_training:
            model.train()
    maps = [m for m in model.encoder.attention_maps() if m is not None]
    if not maps:
        raise RuntimeError("no attention maps recorded")
    stacked = np.stack([m[0] for m in maps])            # (layers, H, T, T)
    row = stacked[:, :, query_index, :].mean(axis=(0, 1))  # (T,)
    return CellAttribution(table, _pool_token_scores(row, serialized[0]),
                           method="attention")


def render_attribution(attribution: CellAttribution, width: int = 14) -> str:
    """ASCII table of cell values annotated with relevance bars."""
    table = attribution.table
    normalized = attribution.normalized()
    peak = max(normalized.scores.values(), default=0.0) or 1.0
    lines = ["  ".join(h[:width].ljust(width) for h in table.header)]
    for r in range(table.num_rows):
        cells = []
        for c in range(table.num_columns):
            text = table.cell(r, c).text()[: width - 5]
            score = normalized.scores.get((r, c), 0.0)
            bars = "▮" * int(round(4 * score / peak))
            cells.append(f"{text} {bars}".ljust(width))
        lines.append("  ".join(cells))
    return "\n".join(lines)
