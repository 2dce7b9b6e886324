"""E17 — tokenizer training: incremental BPE against the full recount.

Every pretraining run, and every ``repro serve``/``repro predict`` given a
model name, trains a WordPiece vocabulary on its table corpus before its
first step (Fig. 1, pipeline (1)).  This bench trains one on a 256-table
wiki corpus and on a 64-table git corpus at vocabulary 1,000, with
``train_tokenizer`` and with the full-recount loop it replaced
(``tests/text/bpe_reference.py``), interleaved over three trials.  It
gates identical token lists and a median speed-up of at least 3x; the gate
is a ratio, so the runner's speed cancels out.
"""

import statistics
import time

from repro.core import text_corpus_from_tables
from repro.corpus import open_stream
from repro.text import train_tokenizer

from tests.text.bpe_reference import reference_train_tokenizer

from .conftest import print_table

CORPORA = [("wiki", 256), ("git", 64)]
VOCAB_SIZE = 1000
TRIALS = 3
MIN_SPEEDUP = 3.0


def _train(trainer, texts):
    """Wall-clock seconds of one training run, and the learned tokens."""
    start = time.perf_counter()
    vocab = trainer(texts, vocab_size=VOCAB_SIZE).vocab
    seconds = time.perf_counter() - start
    return seconds, [vocab.token(i) for i in range(len(vocab))]


def test_incremental_training_speedup(benchmark):
    """Median speed-up of incremental BPE over the full recount."""
    def experiment():
        results = []
        for kind, size in CORPORA:
            texts = text_corpus_from_tables(
                open_stream(kind, size=size, seed=0).materialize())
            fast, slow = [], []
            for trial in range(TRIALS):
                # Alternate which trainer runs first, so drift in the
                # host's speed falls on both.
                order = [(train_tokenizer, fast),
                         (reference_train_tokenizer, slow)]
                for trainer, runs in order[::-1] if trial % 2 else order:
                    runs.append(_train(trainer, texts))
                assert fast[-1][1] == slow[-1][1], (
                    f"{kind}-{size}: the vocabularies differ")
            results.append((
                f"{kind}-{size}", len(fast[0][1]),
                statistics.median(seconds for seconds, _ in slow),
                statistics.median(seconds for seconds, _ in fast),
                statistics.median(s[0] / f[0] for f, s in zip(fast, slow))))
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table(
        f"E17: WordPiece training at vocabulary {VOCAB_SIZE}, median of "
        f"{TRIALS} interleaved trials",
        ["corpus", "tokens", "full recount s", "incremental s", "speed-up"],
        [[name, tokens, f"{slow:.3f}", f"{fast:.3f}", f"{speedup:.1f}x"]
         for name, tokens, slow, fast, speedup in results],
    )
    for name, _, _, _, speedup in results:
        assert speedup >= MIN_SPEEDUP, (name, speedup)
