"""WordPiece-style subword tokenizer trained with BPE merges.

BERT and its tabular descendants all consume subword tokens.  This tokenizer
reproduces the mechanism at small scale: training learns frequent merges
bottom-up from characters; encoding greedily matches the longest known piece,
marking word-internal continuations with the ``##`` prefix.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Iterable

from .normalize import normalize_text, word_tokenize
from .vocab import Vocab

__all__ = ["WordPieceTokenizer", "train_tokenizer"]


class WordPieceTokenizer:
    """Greedy longest-match-first subword tokenizer over a :class:`Vocab`."""

    def __init__(self, vocab: Vocab, max_word_chars: int = 64) -> None:
        self.vocab = vocab
        self.max_word_chars = max_word_chars

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def tokenize_word(self, word: str) -> list[str]:
        """Split one word into subword pieces (``['play', '##ing']``)."""
        if word in self.vocab:
            return [word]
        if len(word) > self.max_word_chars:
            return [self.vocab.unk_token]
        pieces: list[str] = []
        start = 0
        while start < len(word):
            end = len(word)
            piece = None
            while end > start:
                candidate = word[start:end]
                if start > 0:
                    candidate = "##" + candidate
                if candidate in self.vocab:
                    piece = candidate
                    break
                end -= 1
            if piece is None:
                return [self.vocab.unk_token]
            pieces.append(piece)
            start = end
        return pieces

    def tokenize(self, text: str) -> list[str]:
        """Normalize, word-split and subword-split ``text``."""
        tokens: list[str] = []
        for word in word_tokenize(normalize_text(text)):
            tokens.extend(self.tokenize_word(word))
        return tokens

    def encode(self, text: str) -> list[int]:
        """Token ids for ``text`` (no specials added)."""
        return [self.vocab.id(t) for t in self.tokenize(text)]

    def decode(self, ids: Iterable[int], skip_special: bool = True) -> str:
        """Best-effort inverse of :meth:`encode`."""
        words: list[str] = []
        from .vocab import SPECIAL_TOKENS
        for token_id in ids:
            token = self.vocab.token(int(token_id))
            if skip_special and token in SPECIAL_TOKENS:
                continue
            if token.startswith("##") and words:
                words[-1] += token[2:]
            else:
                words.append(token)
        return " ".join(words)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "max_word_chars": self.max_word_chars,
            "tokens": [self.vocab.token(i) for i in range(len(self.vocab))],
        }
        path.write_text(json.dumps(payload, ensure_ascii=False))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "WordPieceTokenizer":
        """Read a file written by :meth:`save`; raises ``ValueError``
        unless it holds a JSON object with an integer ``max_word_chars``
        and a list of string ``tokens`` that starts with the specials."""
        from .vocab import SPECIAL_TOKENS
        payload = json.loads(Path(path).read_text())
        if not (isinstance(payload, dict)
                and isinstance(payload.get("tokens"), list)
                and all(isinstance(token, str) for token in payload["tokens"])
                and payload["tokens"][:len(SPECIAL_TOKENS)]
                == list(SPECIAL_TOKENS)
                and isinstance(payload.get("max_word_chars"), int)):
            raise ValueError(
                f"{path} is not a tokenizer file: expected a JSON object "
                f"with an integer max_word_chars and a list of string "
                f"tokens that starts with the reserved specials")
        return cls(Vocab(payload["tokens"][len(SPECIAL_TOKENS):]),
                   max_word_chars=payload["max_word_chars"])


def _word_frequencies(texts: Iterable[str]) -> Counter:
    counts: Counter = Counter()
    for text in texts:
        counts.update(word_tokenize(normalize_text(text)))
    return counts


def _merge_pair(pieces: list[str], left: str, right: str,
                new_piece: str) -> list[str]:
    """``pieces`` with each ``left right`` occurrence, scanned left to right
    without overlap, replaced by ``new_piece``."""
    out: list[str] = []
    i = 0
    while i < len(pieces):
        if i + 1 < len(pieces) and pieces[i] == left and pieces[i + 1] == right:
            out.append(new_piece)
            i += 2
        else:
            out.append(pieces[i])
            i += 1
    return out


def train_tokenizer(texts: Iterable[str], vocab_size: int = 2000,
                    min_pair_frequency: int = 2) -> WordPieceTokenizer:
    """Learn a WordPiece vocabulary from raw texts.

    Starts from single characters (word-initial and ``##``-continuation
    forms) and repeatedly merges the most frequent adjacent pair until
    ``vocab_size`` is reached or no pair passes ``min_pair_frequency``.

    Pair counts are frequency-weighted and kept incrementally: a merge
    rewrites only the words holding the merged pair and recounts their
    pairs.  A tie goes to the pair that occurs first when the words are
    scanned in first-seen order, each left to right, so the vocabulary is
    the one a full recount per merge would learn.
    """
    # Each word's current pieces and frequency; the frequency-weighted
    # count of every adjacent pair and the indices of the words holding it.
    # A pair leaves both maps when no word holds it.
    words: list[list[str]] = []
    freqs: list[int] = []
    pair_counts: dict[tuple[str, str], int] = {}
    holders: dict[tuple[str, str], set[int]] = {}

    def rewrite(index: int, pieces: list[str]) -> None:
        """Replace word ``index``'s pieces, recounting all of its pairs
        (a merge can remove overlapping occurrences, not just neighbours)."""
        old, freq = words[index], freqs[index]
        before, after = list(zip(old, old[1:])), list(zip(pieces, pieces[1:]))
        for pair in before:
            pair_counts[pair] -= freq
        for pair in after:
            pair_counts[pair] = pair_counts.get(pair, 0) + freq
        for pair in set(before).difference(after):
            holders[pair].discard(index)
            if not holders[pair]:
                del holders[pair], pair_counts[pair]
        for pair in set(after).difference(before):
            holders.setdefault(pair, set()).add(index)
        words[index] = pieces

    # Each word begins fully split into characters.
    alphabet: set[str] = set()
    for word, freq in _word_frequencies(texts).items():
        pieces = [word[0]] + ["##" + ch for ch in word[1:]]
        alphabet.update(pieces)
        words.append([])
        freqs.append(freq)
        rewrite(len(words) - 1, pieces)

    vocab_tokens: list[str] = sorted(alphabet)
    budget = vocab_size - len(Vocab()) - len(vocab_tokens)

    merged: list[str] = []
    while budget > 0 and pair_counts:
        freq = max(pair_counts.values())
        if freq < min_pair_frequency:
            break
        # Of the pairs tied at ``freq``, take the leftmost one in the
        # earliest word that holds any of them.
        first = min(min(holders[pair]) for pair, count in pair_counts.items()
                    if count == freq)
        pieces = words[first]
        left, right = next(pair for pair in zip(pieces, pieces[1:])
                           if pair_counts[pair] == freq)
        new_piece = left + right[2:] if right.startswith("##") else left + right
        merged.append(new_piece)
        budget -= 1
        for index in list(holders[(left, right)]):
            rewrite(index, _merge_pair(words[index], left, right, new_piece))

    return WordPieceTokenizer(Vocab(vocab_tokens + merged))
