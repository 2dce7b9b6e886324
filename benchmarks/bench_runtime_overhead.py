"""E21 — runtime-telemetry overhead smoke bench.

Verifies the central promise of :mod:`repro.runtime`: instrumentation
costs nothing measurable until someone turns it on.  Three configurations
of the same encoder forward+backward workload are timed:

- ``disabled``  — no tape hook installed (the production fast path);
- ``profiled``  — inside :func:`repro.runtime.profile`;
- ``telemetry`` — step telemetry emitted to an in-memory sink.

The disabled path must sit well under the profiled path, and the whole
suite doubles as the marker-gated check that a metrics-enabled pipeline
run produces a parseable JSONL artifact.
"""

import json
import time

import numpy as np
import pytest

from repro.core import create_model, run_imputation_pipeline
from repro.nn import get_tape_hook
from repro.runtime import profile
from repro.pretrain import PretrainConfig
from repro.tasks import FinetuneConfig

from .conftest import print_table

TRIALS = 9


def _workload(model, batch):
    hidden = model(batch)
    loss = (hidden * hidden).mean()
    loss.backward()
    model.zero_grad()


def _interleaved_medians(disabled_fn, profiled_fn,
                         trials: int = TRIALS) -> tuple[float, float]:
    """Alternate A/B samples so clock drift hits both modes equally."""
    disabled_samples, profiled_samples = [], []
    for _ in range(trials):
        start = time.perf_counter()
        disabled_fn()
        disabled_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        profiled_fn()
        profiled_samples.append(time.perf_counter() - start)
    return (float(np.median(disabled_samples)),
            float(np.median(profiled_samples)))


def test_disabled_path_overhead(benchmark, wiki_corpus, tokenizer,
                                small_config):
    """Per-op hook check must be invisible next to the numpy math."""
    model = create_model("bert", tokenizer, config=small_config, seed=0)
    batch, _ = model.batch(wiki_corpus[:4])
    model.train()
    _workload(model, batch)  # warm caches before timing

    assert get_tape_hook() is None

    def profiled_once():
        with profile(emit=False) as prof:
            _workload(model, batch)
        assert prof.total_calls > 0

    disabled, profiled = benchmark.pedantic(
        lambda: _interleaved_medians(lambda: _workload(model, batch),
                                     profiled_once),
        rounds=1, iterations=1)

    print_table(
        "E21: runtime telemetry overhead (encoder fwd+bwd)",
        ["mode", "median s", "vs disabled"],
        [["disabled", f"{disabled:.4f}", "1.00x"],
         ["profiled", f"{profiled:.4f}", f"{profiled / disabled:.2f}x"]],
    )
    # The disabled fast path does strictly less work per op than the
    # profiled one; the margin only absorbs scheduler/clock noise.
    assert disabled <= profiled * 1.25


@pytest.mark.metrics
def test_pipeline_metrics_artifact_parseable(wiki_corpus, tokenizer,
                                             small_config, tmp_path):
    """A metrics-enabled pipeline run must yield a parseable JSONL file."""
    path = tmp_path / "pipeline-metrics.jsonl"
    run_imputation_pipeline(
        wiki_corpus[:20], model_name="bert", tokenizer=tokenizer,
        config=small_config,
        pretrain_config=PretrainConfig(steps=3, batch_size=4),
        finetune_config=FinetuneConfig(epochs=1, batch_size=8),
        metrics_out=path)
    events = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = {event["kind"] for event in events}
    assert "train_step" in kinds and "pipeline_run" in kinds
    sources = {e.get("source") for e in events if e["kind"] == "train_step"}
    assert sources == {"pretrain", "finetune"}
    for event in events:
        if event["kind"] == "train_step":
            assert {"step", "loss", "lr", "grad_norm",
                    "wall_time", "tokens"} <= set(event)
