"""Reference BPE trainer: the full-recount loop ``train_tokenizer`` replaced.

Each merge recounts every adjacent pair of every word and rewrites every
word.  It is slow but obviously right, so tests and the E17 bench compare
the incremental trainer in ``repro.text.tokenizer`` against it token for
token.  Keep it unchanged: it defines the vocabulary every checkpoint and
golden is built on.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.text import Vocab, WordPieceTokenizer
from repro.text.normalize import normalize_text, word_tokenize

__all__ = ["reference_train_tokenizer"]


def _word_frequencies(texts: Iterable[str]) -> Counter:
    counts: Counter = Counter()
    for text in texts:
        counts.update(word_tokenize(normalize_text(text)))
    return counts


def reference_train_tokenizer(texts: Iterable[str], vocab_size: int = 2000,
                              min_pair_frequency: int = 2
                              ) -> WordPieceTokenizer:
    """Learn a WordPiece vocabulary by recounting all pairs per merge."""
    word_freq = _word_frequencies(texts)

    # Each word is a sequence of pieces; begin fully split into characters.
    words: list[tuple[list[str], int]] = []
    alphabet: set[str] = set()
    for word, freq in word_freq.items():
        pieces = [word[0]] + ["##" + ch for ch in word[1:]]
        words.append((pieces, freq))
        alphabet.update(pieces)

    vocab_tokens: list[str] = sorted(alphabet)
    budget = vocab_size - len(Vocab()) - len(vocab_tokens)

    merged: list[str] = []
    while budget > 0:
        pair_counts: Counter = Counter()
        for pieces, freq in words:
            for left, right in zip(pieces, pieces[1:]):
                pair_counts[(left, right)] += freq
        if not pair_counts:
            break
        (left, right), freq = pair_counts.most_common(1)[0]
        if freq < min_pair_frequency:
            break
        new_piece = left + right[2:] if right.startswith("##") else left + right
        merged.append(new_piece)
        budget -= 1
        for index, (pieces, word_count) in enumerate(words):
            out: list[str] = []
            i = 0
            while i < len(pieces):
                if i + 1 < len(pieces) and pieces[i] == left and pieces[i + 1] == right:
                    out.append(new_piece)
                    i += 2
                else:
                    out.append(pieces[i])
                    i += 1
            words[index] = (out, word_count)

    return WordPieceTokenizer(Vocab(vocab_tokens + merged))
