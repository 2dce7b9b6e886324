"""Vocabulary: token↔id mapping with reserved special tokens.

Besides the BERT specials, the vocabulary reserves *structural* tokens used
by the table serializers ([ROW], [HEADER], [EMPTY]) — the "data structure
aware" input markers the tutorial's Fig. 2b illustrates.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

__all__ = ["Vocab", "SPECIAL_TOKENS"]

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
ROW, HEADER, EMPTY = "[ROW]", "[HEADER]", "[EMPTY]"
BOS, EOS = "[BOS]", "[EOS]"

SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK, ROW, HEADER, EMPTY, BOS, EOS)


class Vocab:
    """Bidirectional token↔id mapping; ids are dense and start at 0."""

    pad_token, unk_token, cls_token = PAD, UNK, CLS
    sep_token, mask_token = SEP, MASK
    row_token, header_token, empty_token = ROW, HEADER, EMPTY
    bos_token, eos_token = BOS, EOS

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        for token in SPECIAL_TOKENS:
            self.add(token)
        for token in tokens:
            self.add(token)

    def add(self, token: str) -> int:
        """Add a token if absent; return its id."""
        existing = self._token_to_id.get(token)
        if existing is not None:
            return existing
        token_id = len(self._id_to_token)
        self._token_to_id[token] = token_id
        self._id_to_token.append(token)
        return token_id

    def id(self, token: str) -> int:
        """Id of ``token``, falling back to [UNK]."""
        return self._token_to_id.get(token, self._token_to_id[UNK])

    def token(self, token_id: int) -> str:
        return self._id_to_token[token_id]

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __len__(self) -> int:
        return len(self._id_to_token)

    # Convenience ids used throughout the models.
    @property
    def pad_id(self) -> int:
        return self._token_to_id[PAD]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[UNK]

    @property
    def cls_id(self) -> int:
        return self._token_to_id[CLS]

    @property
    def sep_id(self) -> int:
        return self._token_to_id[SEP]

    @property
    def mask_id(self) -> int:
        return self._token_to_id[MASK]

    @property
    def bos_id(self) -> int:
        return self._token_to_id[BOS]

    @property
    def eos_id(self) -> int:
        return self._token_to_id[EOS]

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self._id_to_token, ensure_ascii=False))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        tokens = json.loads(Path(path).read_text())
        if tokens[: len(SPECIAL_TOKENS)] != list(SPECIAL_TOKENS):
            raise ValueError("vocabulary file does not start with the reserved specials")
        return cls(tokens[len(SPECIAL_TOKENS):])
