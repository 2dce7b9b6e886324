"""E20 — serving-engine throughput: single vs batched vs cached.

A repeated-table workload (the table-QA serving pattern: many clients
asking the same questions of the same tables) is answered three ways:

- ``single``  one request per forward, no cache — the naive loop;
- ``batched`` padded batches of 8 through ``predict``, no cache;
- ``cached``  the full :class:`repro.serve.InferenceEngine`: one request
  at a time (its determinism contract) over the content-addressed
  encoding cache.

The acceptance bar is cached ≥ 3× the single-request throughput, and it
comes from the cache alone: 80 requests over 8 distinct (table,
question) pairs cost 80 serializations and 80 forwards singly, but only
8 of each through the engine — every repeat is a content-hash hit that
skips both tokenization and the transformer.
"""

import time

import numpy as np
import pytest

from repro.corpus import build_qa_dataset
from repro.models import Tapas
from repro.serve import InferenceEngine, ServeConfig
from repro.tasks import CellSelectionQA

from .conftest import print_table

REPEATS = 10         # times each distinct request recurs in the workload
DISTINCT = 8         # distinct (table, question) pairs


@pytest.fixture(scope="module")
def workload(wiki_corpus, config, tokenizer):
    tables = wiki_corpus[:4]
    examples = build_qa_dataset(tables, np.random.default_rng(0),
                                per_table=2)[:DISTINCT]
    assert len(examples) == DISTINCT
    requests = [examples[i % DISTINCT] for i in range(DISTINCT * REPEATS)]
    # The full-size bench config: serving wins scale with forward cost,
    # so the encoder must look like a model, not a toy.
    encoder = Tapas(config, tokenizer, np.random.default_rng(0))
    qa = CellSelectionQA(encoder, np.random.default_rng(0))
    return qa, requests


def _throughput(fn, requests) -> tuple[float, float]:
    start = time.perf_counter()
    responses = fn(requests)
    elapsed = time.perf_counter() - start
    assert len(responses) == len(requests)
    return len(requests) / elapsed, elapsed


def test_serving_throughput(workload):
    qa, requests = workload

    def single(reqs):
        qa.encoder.set_encoding_cache(None)
        out = []
        for request in reqs:
            out.extend(qa.predict([request], batch_size=1))
        return out

    def batched(reqs):
        qa.encoder.set_encoding_cache(None)
        return qa.predict(reqs, batch_size=8)

    engine = InferenceEngine({"qa": qa}, ServeConfig(cache_entries=64))

    def cached(reqs):
        # single()/batched() detached the engine-installed cache; restore it.
        qa.encoder.set_encoding_cache(engine.cache)
        return engine.process([("qa", r) for r in reqs])

    # Warm-up outside the timed region (BLAS init, tokenizer caches).
    single(requests[:2])

    single_tput, single_s = _throughput(single, requests)
    batched_tput, batched_s = _throughput(batched, requests)
    cached_tput, cached_s = _throughput(cached, requests)

    rows = [
        ["single", f"{single_s * 1e3:.0f}", f"{single_tput:.1f}", "1.0x"],
        ["batched", f"{batched_s * 1e3:.0f}", f"{batched_tput:.1f}",
         f"{batched_tput / single_tput:.1f}x"],
        ["cached", f"{cached_s * 1e3:.0f}", f"{cached_tput:.1f}",
         f"{cached_tput / single_tput:.1f}x"],
    ]
    print_table(
        f"E20: serving throughput — {len(requests)} requests, "
        f"{DISTINCT} distinct, batch 8",
        ["mode", "total ms", "req/s", "speedup"], rows)

    # The engine saw every repeat after the first as a cache hit.
    assert engine.cache.misses == DISTINCT
    assert engine.cache.hits == len(requests) - DISTINCT

    # Pure numpy batching is roughly a wash (BLAS already saturates one
    # matmul, and padding to the longest sequence wastes flops), so only
    # sanity-bound it; the acceptance bar is on the cached engine.
    assert batched_tput > 0.5 * single_tput
    assert cached_tput >= 3.0 * single_tput, (
        f"cached {cached_tput:.1f} req/s < 3x single "
        f"{single_tput:.1f} req/s")

    # Answers agree across modes (same weights, same inputs).
    single_labels = [p.label for p in single(requests[:DISTINCT])]
    cached_labels = [r.prediction.label
                     for r in cached(requests[:DISTINCT])]
    assert single_labels == cached_labels
