"""Task heads attached on top of table encoders.

The survey groups output-level customizations as "addition of CLS layers"
and task-specific heads; these are those heads:

- :class:`MlmHead` — masked-token prediction over the word vocabulary
  (weight-tied to the token embedding, as in BERT);
- :class:`EntityRecoveryHead` — TURL's masked entity recovery over the
  entity vocabulary (weight-tied to the entity embedding);
- :class:`ClassificationHead` — pooled-sequence classification (NLI,
  aggregation selection);
- :class:`CellSelectionHead` — per-token scoring pooled into per-cell
  scores (TAPAS cell selection).
"""

from __future__ import annotations

import numpy as np

from ..nn import Linear, Module, Parameter, Tensor

__all__ = ["MlmHead", "EntityRecoveryHead", "ClassificationHead", "CellSelectionHead"]


class MlmHead(Module):
    """Transform + tied-embedding projection to vocabulary logits."""

    def __init__(self, dim: int, token_embedding_weight: Parameter,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.transform = Linear(dim, dim, rng)
        self.tied_weight = token_embedding_weight  # registered on the encoder
        self.bias = Parameter(np.zeros(token_embedding_weight.shape[0]))

    def forward(self, hidden: Tensor) -> Tensor:
        """Vocabulary logits of shape ``(..., vocab_size)``."""
        transformed = self.transform(hidden).gelu()
        return transformed @ self.tied_weight.T + self.bias


class EntityRecoveryHead(Module):
    """Score the entity vocabulary for masked entity cells (TURL MER)."""

    def __init__(self, dim: int, entity_embedding_weight: Parameter,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.transform = Linear(dim, dim, rng)
        self.tied_weight = entity_embedding_weight
        self.bias = Parameter(np.zeros(entity_embedding_weight.shape[0]))

    def forward(self, hidden: Tensor) -> Tensor:
        """Entity logits of shape ``(..., num_entities)``."""
        transformed = self.transform(hidden).gelu()
        return transformed @ self.tied_weight.T + self.bias


class ClassificationHead(Module):
    """Two-layer classifier over a pooled representation."""

    def __init__(self, dim: int, num_classes: int, rng: np.random.Generator,
                 hidden_dim: int | None = None) -> None:
        super().__init__()
        hidden_dim = hidden_dim or dim
        self.hidden = Linear(dim, hidden_dim, rng)
        self.output = Linear(hidden_dim, num_classes, rng)

    def forward(self, pooled: Tensor) -> Tensor:
        return self.output(self.hidden(pooled).tanh())


class CellSelectionHead(Module):
    """Per-token scores for cell selection.

    TAPAS scores every token; the task averages them within each cell
    span, and the cell with the highest score is the predicted answer.
    """

    def __init__(self, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.scorer = Linear(dim, 1, rng)

    def token_scores(self, hidden: Tensor) -> Tensor:
        """Raw per-token logits of shape ``(batch, seq)``."""
        batch, seq, _ = hidden.shape
        return self.scorer(hidden).reshape(batch, seq)
