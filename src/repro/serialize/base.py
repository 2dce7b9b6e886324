"""Serialization core: the 1-D token view of a 2-D table.

Every model in the survey first *linearizes* a table into a token sequence
(Fig. 1, "Input Processing").  What distinguishes the structure-aware models
is that the linearization keeps per-token coordinates — which row, which
column, which role — so embeddings and attention masks can reconstruct the
2-D layout.  :class:`SerializedTable` carries exactly that information.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from ..tables import Table
from ..text import WordPieceTokenizer

__all__ = ["TokenRole", "SerializedTable", "SequenceBuilder", "Serializer"]


class TokenRole(IntEnum):
    """What a token stands for in the original table."""

    SPECIAL = 0
    CONTEXT = 1
    HEADER = 2
    CELL = 3


@dataclass
class SerializedTable:
    """A linearized table with per-token structural coordinates.

    Attributes
    ----------
    tokens:
        Subword token strings, specials included.
    token_ids:
        Vocabulary ids, parallel to ``tokens``.
    roles:
        Per-token :class:`TokenRole` values.
    row_ids:
        1-based data-row index per token; 0 for context, header and specials.
    column_ids:
        1-based column index per token (headers included); 0 elsewhere.
    cell_spans:
        ``(row, col) → (start, end)`` token ranges of data cells (end is
        exclusive).  Rows/cols are 0-based table coordinates.
    header_spans:
        ``col → (start, end)`` token ranges of header cells.
    context_span:
        ``(start, end)`` range of the context tokens (``(0, 0)`` if none).
    truncated_cells:
        Number of data cells dropped to respect the token budget.
    """

    tokens: list[str]
    token_ids: np.ndarray
    roles: np.ndarray
    row_ids: np.ndarray
    column_ids: np.ndarray
    cell_spans: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)
    header_spans: dict[int, tuple[int, int]] = field(default_factory=dict)
    context_span: tuple[int, int] = (0, 0)
    truncated_cells: int = 0

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def num_rows_serialized(self) -> int:
        """How many distinct data rows survived serialization."""
        return len({row for row, _ in self.cell_spans})

    def text(self) -> str:
        """Human-readable view of the serialized sequence."""
        return " ".join(self.tokens)


class SequenceBuilder:
    """Accumulates tokens with structural coordinates; shared by serializers."""

    def __init__(self, tokenizer: WordPieceTokenizer) -> None:
        self.tokenizer = tokenizer
        self.tokens: list[str] = []
        self.roles: list[int] = []
        self.row_ids: list[int] = []
        self.column_ids: list[int] = []
        self.cell_spans: dict[tuple[int, int], tuple[int, int]] = {}
        self.header_spans: dict[int, tuple[int, int]] = {}
        self.context_span: tuple[int, int] = (0, 0)
        self.truncated_cells = 0

    def __len__(self) -> int:
        return len(self.tokens)

    def add_special(self, token: str) -> None:
        self.tokens.append(token)
        self.roles.append(TokenRole.SPECIAL)
        self.row_ids.append(0)
        self.column_ids.append(0)

    def add_words(self, text: str, role: TokenRole, row: int = 0, column: int = 0,
                  empty_token: str | None = None) -> tuple[int, int]:
        """Tokenize ``text`` and append with coordinates; returns the span."""
        pieces = self.tokenizer.tokenize(text)
        if not pieces and empty_token is not None:
            pieces = [empty_token]
        start = len(self.tokens)
        for piece in pieces:
            self.tokens.append(piece)
            self.roles.append(role)
            self.row_ids.append(row)
            self.column_ids.append(column)
        return start, len(self.tokens)

    def add_context(self, text: str) -> None:
        if text.strip():
            self.context_span = self.add_words(text, TokenRole.CONTEXT)

    def add_header_cell(self, table: Table, column: int) -> None:
        span = self.add_words(
            table.header[column], TokenRole.HEADER, row=0, column=column + 1,
            empty_token=self.tokenizer.vocab.empty_token,
        )
        self.header_spans[column] = span

    def add_data_cell(self, table: Table, row: int, column: int) -> None:
        span = self.add_words(
            table.cell(row, column).text(), TokenRole.CELL,
            row=row + 1, column=column + 1,
            empty_token=self.tokenizer.vocab.empty_token,
        )
        self.cell_spans[(row, column)] = span

    def build(self) -> SerializedTable:
        token_ids = np.array([self.tokenizer.vocab.id(t) for t in self.tokens],
                             dtype=np.int64)
        return SerializedTable(
            tokens=list(self.tokens),
            token_ids=token_ids,
            roles=np.array(self.roles, dtype=np.int64),
            row_ids=np.array(self.row_ids, dtype=np.int64),
            column_ids=np.array(self.column_ids, dtype=np.int64),
            cell_spans=dict(self.cell_spans),
            header_spans=dict(self.header_spans),
            context_span=self.context_span,
            truncated_cells=self.truncated_cells,
        )


class Serializer:
    """Base class: turn (table, context) into a :class:`SerializedTable`.

    Subclasses implement :meth:`_emit_table`; context placement and the
    token budget are handled here so every variant treats them uniformly.
    """

    name = "base"

    def __init__(self, tokenizer: WordPieceTokenizer, max_tokens: int = 256,
                 context_first: bool = True) -> None:
        if max_tokens < 8:
            raise ValueError("max_tokens too small to hold specials and context")
        self.tokenizer = tokenizer
        self.max_tokens = max_tokens
        self.context_first = context_first

    # ------------------------------------------------------------------
    def serialize(self, table: Table, context: str | None = None) -> SerializedTable:
        """Linearize ``table`` (optionally overriding its own context text)."""
        context_text = context if context is not None else table.context.text()
        table = self._fit_to_budget(table, context_text)

        builder = SequenceBuilder(self.tokenizer)
        vocab = self.tokenizer.vocab
        builder.add_special(vocab.cls_token)
        if self.context_first:
            builder.add_context(context_text)
            builder.add_special(vocab.sep_token)
            self._emit_table(builder, table)
        else:
            self._emit_table(builder, table)
            builder.add_special(vocab.sep_token)
            builder.add_context(context_text)
        builder.add_special(vocab.sep_token)
        builder.truncated_cells = self._last_truncated
        return builder.build()

    # ------------------------------------------------------------------
    def _emit_table(self, builder: SequenceBuilder, table: Table) -> None:
        raise NotImplementedError

    def _sequence_cost(self, table: Table, context_text: str) -> int:
        """Upper bound on the token count if ``table`` were fully emitted."""
        probe = SequenceBuilder(self.tokenizer)
        probe.add_special(self.tokenizer.vocab.cls_token)
        probe.add_context(context_text)
        probe.add_special(self.tokenizer.vocab.sep_token)
        self._emit_table(probe, table)
        probe.add_special(self.tokenizer.vocab.sep_token)
        return len(probe)

    def _fit_to_budget(self, table: Table, context_text: str) -> Table:
        """Drop trailing rows until the serialized table fits ``max_tokens``.

        Keeps at least one data row (if any exist); records how many cells
        were dropped for reporting (E3 measures this truncation rate).
        """
        self._last_truncated = 0
        if self._sequence_cost(table, context_text) <= self.max_tokens:
            return table
        keep = table.num_rows
        while keep > 1:
            keep -= 1
            candidate = table.subtable(row_indices=range(keep))
            if self._sequence_cost(candidate, context_text) <= self.max_tokens:
                break
        self._last_truncated = (table.num_rows - keep) * table.num_columns
        return table.subtable(row_indices=range(keep))
