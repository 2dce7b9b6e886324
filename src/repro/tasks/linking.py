"""Entity linking: grounding table cells in a knowledge base (§2.1).

The survey lists "entity resolution and linking" among the metadata tasks
neural table representations serve; it is TURL's flagship application.
The linker here follows the classic two-stage recipe:

1. **candidate generation** — lexical: KB entities whose names share
   tokens with the cell mention (plus the exact-match fast path);
2. **candidate ranking** — semantic: score each candidate's entity
   embedding against the mention cell's contextual embedding, so row/column
   context disambiguates mentions that share a surface form.

Works zero-shot on a pretrained :class:`~repro.models.Turl` (MER pretraining
shapes exactly this geometry) and improves with fine-tuning via the MER
objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus import Entity, KnowledgeBase
from ..eval import accuracy
from ..models import Turl
from ..tables import Table
from ..text import normalize_text, word_tokenize

__all__ = ["LinkingExample", "EntityLinker", "build_linking_dataset"]


@dataclass(frozen=True)
class LinkingExample:
    """One mention cell to be linked to its KB entity."""

    table: Table          # entity annotations stripped from the mention
    row: int
    column: int
    gold_entity_id: int


def build_linking_dataset(tables: list[Table], rng: np.random.Generator,
                          per_table: int = 2) -> list[LinkingExample]:
    """Turn entity-annotated tables into linking examples.

    The chosen mention keeps its surface text but loses its entity
    annotation (that is what the linker must recover); all other cells
    keep their annotations as context.
    """
    examples: list[LinkingExample] = []
    for table in tables:
        annotated = [(r, c, cell) for r, c, cell in table.iter_cells()
                     if cell.entity_id is not None]
        if not annotated:
            continue
        count = min(per_table, len(annotated))
        chosen = rng.choice(len(annotated), size=count, replace=False)
        for index in np.atleast_1d(chosen):
            row, column, cell = annotated[int(index)]
            stripped = table.replace_cell(row, column, cell.value)
            examples.append(LinkingExample(
                table=stripped, row=row, column=column,
                gold_entity_id=cell.entity_id,
            ))
    return examples


class EntityLinker:
    """Lexical candidate generation + embedding-based ranking."""

    def __init__(self, model: Turl, kb: KnowledgeBase,
                 max_candidates: int = 8) -> None:
        if not isinstance(model, Turl):
            raise TypeError("EntityLinker requires a Turl encoder "
                            "(it ranks with the entity embedding table)")
        if max_candidates < 1:
            raise ValueError("max_candidates must be positive")
        self.model = model
        self.kb = kb
        self.max_candidates = max_candidates
        self._token_index: dict[str, list[Entity]] = {}
        self._name_index: dict[str, list[Entity]] = {}
        for entity in kb.entities:
            normalized = normalize_text(entity.name)
            self._name_index.setdefault(normalized, []).append(entity)
            for token in word_tokenize(normalized):
                self._token_index.setdefault(token, []).append(entity)

    # ------------------------------------------------------------------
    def candidates(self, mention: str) -> list[Entity]:
        """Lexically plausible entities for a mention, best first."""
        normalized = normalize_text(mention)
        exact = list(self._name_index.get(normalized, []))
        scores: dict[int, int] = {}
        for token in word_tokenize(normalized):
            for entity in self._token_index.get(token, []):
                scores[entity.entity_id] = scores.get(entity.entity_id, 0) + 1
        ranked = sorted(scores.items(), key=lambda item: -item[1])
        out = exact + [self.kb.entity(eid) for eid, _ in ranked
                       if self.kb.entity(eid) not in exact]
        return out[: self.max_candidates]

    # ------------------------------------------------------------------
    def _mention_vector(self, example: LinkingExample) -> np.ndarray | None:
        encoding = self.model.encode(example.table)
        return encoding.cell_embeddings.get((example.row, example.column))

    def link(self, example: LinkingExample) -> int | None:
        """Predicted KB entity id for one mention (None if no candidates)."""
        mention = example.table.cell(example.row, example.column).text()
        candidates = self.candidates(mention)
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0].entity_id
        vector = self._mention_vector(example)
        if vector is None:
            return candidates[0].entity_id
        # Entity embedding slot ids are offset by one (0 = no entity).
        table = self.model.entity_embedding.weight.data
        scores = []
        for entity in candidates:
            embedding = table[entity.entity_id + 1]
            denom = (np.linalg.norm(vector) * np.linalg.norm(embedding)) + 1e-9
            scores.append(float(vector @ embedding / denom))
        return candidates[int(np.argmax(scores))].entity_id

    def evaluate(self, examples: list[LinkingExample]) -> dict[str, float]:
        """Linking accuracy plus candidate-recall (the generation ceiling)."""
        predictions = [self.link(e) for e in examples]
        golds = [e.gold_entity_id for e in examples]
        recalled = [
            any(c.entity_id == e.gold_entity_id
                for c in self.candidates(
                    e.table.cell(e.row, e.column).text()))
            for e in examples
        ]
        return {
            "accuracy": accuracy(predictions, golds),
            "candidate_recall": float(np.mean(recalled)) if examples else 0.0,
        }
