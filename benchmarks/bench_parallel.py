"""E19 — data-parallel pretraining throughput and bit-equality.

Reruns the Fig. 2c workload (TURL, batch 8, the wiki corpus) through
``repro.parallel`` and reports step throughput for workers ∈ {1, 4}
plus the engine's telemetry (shard/reduce time, imbalance).  The
correctness half — checkpoint bytes identical across worker counts — is
asserted unconditionally; the ≥2x speedup half only where the hardware
can physically provide it (4+ usable cores), since on a 1-core runner
the forked workers time-slice one CPU and IPC overhead dominates.
"""

import os
import time

import numpy as np
import pytest

from repro.core import create_model
from repro.parallel import FixedClock, ParallelConfig
from repro.pretrain import Pretrainer, PretrainConfig
from repro.runtime import MetricsRegistry, using_registry

from .conftest import print_table

STEPS = 24
BATCH_SIZE = 8
SHARD_SIZE = 2
SPEEDUP_TARGET = 2.0


def run_pretraining(wiki_corpus, tokenizer, config,
                    workers: int) -> tuple[float, bytes, MetricsRegistry]:
    """One seeded Fig. 2c run; returns (seconds, checkpoint bytes, registry)."""
    model = create_model("turl", tokenizer, config=config, seed=0)
    trainer = Pretrainer(model, PretrainConfig(
        steps=STEPS, batch_size=BATCH_SIZE, learning_rate=3e-3, seed=0,
        parallel=ParallelConfig(workers=workers, shard_size=SHARD_SIZE)),
        clock=FixedClock())
    registry = MetricsRegistry()
    with using_registry(registry):
        started = time.perf_counter()
        trainer.train(wiki_corpus)
        elapsed = time.perf_counter() - started
    checkpoint = trainer.capture()
    blob = b"".join(np.ascontiguousarray(v).tobytes()
                    for _, v in sorted(checkpoint.model_state.items()))
    return elapsed, blob, registry


def test_parallel_throughput(benchmark, wiki_corpus, tokenizer, config,
                             tmp_path):
    """Serial-vs-4-worker throughput on the Fig. 2c workload."""
    results = {}

    def experiment():
        for workers in (1, 4):
            results[workers] = run_pretraining(
                wiki_corpus, tokenizer, config, workers)
        return results

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    serial_s, serial_state, _ = results[1]
    parallel_s, parallel_state, registry = results[4]
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    shard_ms = registry.histogram("parallel.shard_ms")
    reduce_ms = registry.histogram("parallel.reduce_ms")
    imbalance = registry.histogram("parallel.imbalance")
    cores = os.cpu_count() or 1

    print_table(
        "E19: data-parallel pretraining (Fig. 2c workload, TURL)",
        ["workers", "total s", "step ms", "speedup"],
        [["1", f"{serial_s:.2f}", f"{serial_s / STEPS * 1e3:.1f}", "1.00x"],
         ["4", f"{parallel_s:.2f}", f"{parallel_s / STEPS * 1e3:.1f}",
          f"{speedup:.2f}x"]],
    )
    print_table(
        "E19: engine telemetry (workers=4)",
        ["metric", "mean", "max"],
        [["parallel.shard_ms", f"{shard_ms.mean:.2f}",
          f"{shard_ms.max_value:.2f}"],
         ["parallel.reduce_ms", f"{reduce_ms.mean:.3f}",
          f"{reduce_ms.max_value:.3f}"],
         ["parallel.imbalance", f"{imbalance.mean:.3f}",
          f"{imbalance.max_value:.3f}"]],
    )

    # Correctness is unconditional: worker count must not move one bit.
    assert serial_state == parallel_state, (
        "workers=4 model state diverged from workers=1")
    assert shard_ms.count == STEPS * (BATCH_SIZE // SHARD_SIZE)

    # The speedup claim needs hardware that can actually run 4 shard
    # computations concurrently; below that, report without asserting.
    if cores >= 4:
        assert speedup >= SPEEDUP_TARGET, (
            f"expected >= {SPEEDUP_TARGET}x step throughput at 4 workers "
            f"on {cores} cores, measured {speedup:.2f}x")
    else:
        print(f"\n(speedup assertion skipped: {cores} usable core(s); "
              f"measured {speedup:.2f}x)")


def test_engine_overhead_at_one_worker(benchmark, wiki_corpus, tokenizer,
                                       small_config):
    """The workers=1 engine path must stay close to the fused loop."""
    def run(parallel):
        model = create_model("turl", tokenizer, config=small_config, seed=0)
        trainer = Pretrainer(model, PretrainConfig(
            steps=8, batch_size=BATCH_SIZE, seed=0, parallel=parallel),
            clock=FixedClock())
        started = time.perf_counter()
        trainer.train(wiki_corpus)
        return time.perf_counter() - started

    def experiment():
        return (run(None),
                run(ParallelConfig(workers=1, shard_size=SHARD_SIZE)))

    fused_s, engine_s = benchmark.pedantic(experiment, rounds=1, iterations=1)
    ratio = engine_s / fused_s if fused_s > 0 else float("inf")
    print_table(
        "E19: workers=1 engine overhead vs fused loop",
        ["path", "total s", "ratio"],
        [["fused (parallel=None)", f"{fused_s:.2f}", "1.00x"],
         ["engine (workers=1)", f"{engine_s:.2f}", f"{ratio:.2f}x"]],
    )
    # Sharded forwards lose some batch-level BLAS efficiency; 3x is the
    # alarm threshold for a regression, not a performance target.
    assert ratio < 3.0, f"workers=1 engine path is {ratio:.2f}x fused"
