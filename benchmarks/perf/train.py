"""The training workloads: in-process pretraining and data-parallel fine-tuning.

- ``pretrain``: :class:`~repro.pretrain.Pretrainer` on TURL with the
  default ``EncoderConfig`` (the knowledge base's entity count), MLM+MER
  at batch 8 over a 256-table wiki corpus, snapshots every 8 steps into
  a scratch directory.  The autograd forward and backward, masking, Adam
  and snapshot writes run here: the encoder of the serve workloads with
  a tape and gradients instead of inference mode.
- ``finetune_dp``: :func:`~repro.tasks.finetune` of a
  :class:`~repro.tasks.ColumnTypePredictor` on TaPas with the default
  config, 2 epochs at batch 16 with ``ParallelConfig(workers=2)``.  This
  is the second training loop (``repro.tasks.common``), and it runs
  ``repro.parallel``'s shard, fixed-order reduce and parameter sync on
  the same ``WorkerPool`` the serve replicas use.

A run repeats a fixed-size job -- build corpus, tokenizer, model and
trainer (timed as set-up), then train -- until the measured seconds are
used, and at least three times.  Each job trains on its own corpus,
seeded from the workload seed and the job's index, so one run averages
over several corpora: a single corpus moved throughput by a fifth from
one seed to the next.  Model and trainer seeds stay 0, and a
``FixedClock`` keeps every step record deterministic.

Correctness: no step may be skipped or rolled back, every loss is
finite, and the first job is replayed after the timed ones -- pretraining
for its first steps, fine-tuning for its first epoch on the in-process
``workers=1`` path -- and must reproduce the same losses bit for bit.
"""

from __future__ import annotations

import functools
import os
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from repro.core import build_tokenizer_for_tables, create_model
from repro.corpus import build_coltype_dataset, open_stream
from repro.models import EncoderConfig
from repro.parallel import FixedClock, ParallelConfig
from repro.pretrain import Pretrainer, PretrainConfig
from repro.tables import dumps_table
from repro.tasks import ColumnTypePredictor, FinetuneConfig, \
    build_label_set, finetune

from .common import PssSampler, digest, metric, result
from .layers import LayerContext, installed, layer_metrics
from .trace import Tracer, aggregate, load_spans

FINETUNE_WORKERS = min(2, os.cpu_count() or 1)
#: Pretraining steps the correctness replay repeats.
REPLAY_STEPS = 4


@dataclass(frozen=True)
class Sizes:
    """How big one job is; tests pass smaller ones."""

    tables: int
    batch: int
    steps: int = 0              # pretrain
    checkpoint_every: int = 0   # pretrain
    examples: int = 0           # finetune
    epochs: int = 0             # finetune
    min_jobs: int = 3


SIZES = {
    "pretrain": Sizes(tables=256, batch=8, steps=24, checkpoint_every=8),
    "finetune": Sizes(tables=64, batch=16, examples=128, epochs=2),
}


class StepClock(FixedClock):
    """A ``FixedClock`` that also notes the real time of every call.

    Both training loops read their clock exactly twice per step, at its
    start and at its end, so consecutive pairs of real times are the
    step durations while the records stay deterministic.
    """

    __slots__ = ("marks",)

    def __init__(self) -> None:
        super().__init__()
        self.marks: list[float] = []

    def __call__(self) -> float:
        self.marks.append(time.perf_counter())
        return super().__call__()

    def step_seconds(self) -> list[float]:
        return [end - start
                for start, end in zip(self.marks[0::2], self.marks[1::2])]


@dataclass
class Job:
    setup_seconds: float
    train_seconds: float
    examples: int
    steps: int
    failed: int
    losses: list[float]
    step_seconds: list[float]
    inputs_digest: str
    window: tuple[float, float]
    sync_bytes: float = 0.0


def job_seed(seed: int, index: int) -> int:
    """The corpus seed of a run's ``index``-th job."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def build_corpus(seed: int, size: int):
    """``(tables, knowledge base, digest)`` of a seed's wiki corpus."""
    stream = open_stream("wiki", size=size, seed=seed)
    tables = stream.materialize()
    return (tables, stream.kb,
            digest(dumps_table(table).encode() for table in tables))


def _pretrainer(corpus_seed: int, sizes: Sizes, clock: FixedClock):
    tables, kb, inputs_digest = build_corpus(corpus_seed, sizes.tables)
    tokenizer = build_tokenizer_for_tables(tables)
    config = EncoderConfig(vocab_size=len(tokenizer.vocab),
                           num_entities=kb.num_entities)
    model = create_model("turl", tokenizer, config=config, seed=0)
    trainer = Pretrainer(model, PretrainConfig(
        steps=sizes.steps, batch_size=sizes.batch, seed=0,
        checkpoint_every=sizes.checkpoint_every), clock=clock)
    return trainer, tables, inputs_digest


def pretrain_job(corpus_seed: int, work: Path, sizes: Sizes) -> Job:
    started = time.perf_counter()
    clock = StepClock()
    trainer, tables, inputs_digest = _pretrainer(corpus_seed, sizes, clock)
    trained = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=work) as snapshots:
        history = trainer.train(tables, checkpoint_dir=snapshots)
    finished = time.perf_counter()
    attempted = len(clock.marks) // 2
    skipped = sum(1 for record in history if record.extras.get("skipped"))
    return Job(setup_seconds=trained - started,
               train_seconds=finished - trained,
               examples=len(history) * sizes.batch, steps=attempted,
               failed=skipped + attempted - len(history),
               losses=[record.loss for record in history],
               step_seconds=clock.step_seconds(),
               inputs_digest=inputs_digest, window=(trained, finished))


def pretrain_replay(corpus_seed: int, sizes: Sizes) -> list[float]:
    """The first steps of a pretraining job, run again from scratch."""
    trainer, tables, _ = _pretrainer(corpus_seed, sizes, FixedClock())
    return [trainer.train_step(tables).loss
            for _ in range(min(REPLAY_STEPS, sizes.steps))]


def _finetune_task(corpus_seed: int, sizes: Sizes):
    tables, _kb, inputs_digest = build_corpus(corpus_seed, sizes.tables)
    examples = build_coltype_dataset(tables)[:sizes.examples]
    tokenizer = build_tokenizer_for_tables(tables)
    encoder = create_model("tapas", tokenizer, seed=0)
    task = ColumnTypePredictor(encoder, build_label_set(examples),
                               np.random.default_rng(0))
    return task, examples, inputs_digest


def finetune_job(corpus_seed: int, work: Path, sizes: Sizes) -> Job:
    started = time.perf_counter()
    task, examples, inputs_digest = _finetune_task(corpus_seed, sizes)
    config = FinetuneConfig(epochs=sizes.epochs, batch_size=sizes.batch,
                            seed=0,
                            parallel=ParallelConfig(workers=FINETUNE_WORKERS))
    clock = StepClock()
    trained = time.perf_counter()
    history = finetune(task, examples, config, clock=clock)
    finished = time.perf_counter()
    # Every step ships every parameter array to every worker.
    sync_bytes = sum(p.data.nbytes for p in task.parameters()) * FINETUNE_WORKERS
    return Job(setup_seconds=trained - started,
               train_seconds=finished - trained,
               examples=sizes.epochs * len(examples), steps=len(history),
               failed=sum(1 for r in history if r.extras.get("skipped")),
               losses=[record.loss for record in history],
               step_seconds=clock.step_seconds(),
               inputs_digest=inputs_digest, window=(trained, finished),
               sync_bytes=float(sync_bytes))


def finetune_replay(corpus_seed: int, sizes: Sizes) -> list[float]:
    """The first epoch of a fine-tuning job on the in-process path."""
    task, examples, _ = _finetune_task(corpus_seed, sizes)
    config = FinetuneConfig(epochs=1, batch_size=sizes.batch, seed=0,
                            parallel=ParallelConfig(workers=1))
    return [record.loss
            for record in finetune(task, examples, config, clock=FixedClock())]


JOBS = {"pretrain": pretrain_job, "finetune": finetune_job}
REPLAYS = {"pretrain": pretrain_replay, "finetune": finetune_replay}


def _replay_matches(family: str, seed: int, sizes: Sizes, job: Job
                    ) -> tuple[bool, str]:
    replayed = REPLAYS[family](job_seed(seed, 0), sizes)
    same = replayed == job.losses[:len(replayed)]
    return same, (f"replay of job 0: {len(replayed)} step losses "
                  f"{'equal' if same else 'DIFFER'}")


def _finite(jobs: list[Job]) -> bool:
    return all(np.all(np.isfinite(job.losses)) for job in jobs)


def run(family: str, *, seed: int, seconds: float, trace: bool, work: Path,
        sizes: Sizes | None = None) -> dict:
    """One run of ``pretrain`` or ``finetune_dp`` (``family="finetune"``)."""
    sizes = sizes or SIZES[family]
    job = functools.partial(JOBS[family], work=work, sizes=sizes)
    if trace:
        return _run_traced(family, job, job_seed(seed, 0), work)
    jobs: list[Job] = []
    started = time.perf_counter()
    with PssSampler(os.getpid()) as memory:
        while (len(jobs) < sizes.min_jobs
               or time.perf_counter() - started < seconds):
            jobs.append(job(job_seed(seed, len(jobs))))
    replay_ok, replay_note = _replay_matches(family, seed, sizes, jobs[0])
    steps_ms = [s * 1e3 for job in jobs for s in job.step_seconds]
    attempted = sum(job.steps for job in jobs)
    failed = sum(job.failed for job in jobs)
    metrics = {
        "setup_s": metric(
            statistics.median(job.setup_seconds for job in jobs), "s"),
        "throughput_per_s": metric(statistics.median(
            job.examples / job.train_seconds for job in jobs), "1/s"),
        "p50_ms": metric(np.percentile(steps_ms, 50), "ms"),
        "p90_ms": metric(np.percentile(steps_ms, 90), "ms"),
        "peak_pss_mb": metric(memory.peak_mb, "MiB"),
    }
    extra = {
        "final_loss": metric(jobs[0].losses[-1], "loss"),
        "error_rate": metric(failed / attempted, "ratio"),
    }
    notes = [f"{len(jobs)} jobs on their own corpora, {attempted} steps; "
             f"step percentiles over {len(steps_ms)} steps", replay_note]
    return result(correct=replay_ok and failed == 0 and _finite(jobs),
                  attempted=attempted, failed=failed, metrics=metrics,
                  extra=extra,
                  inputs_digest=digest(j.inputs_digest.encode() for j in jobs),
                  notes=notes)


def _run_traced(family: str, job: Callable[[int], Job], corpus_seed: int,
                work: Path) -> dict:
    """One untraced job, then the same job with the wrappers installed."""
    untraced = job(corpus_seed)
    tracer = Tracer(work / "spans")
    with installed(tracer):
        traced = job(corpus_seed)
    tracer.flush()
    summary = aggregate(load_spans(tracer.directory), *traced.window)
    measured = {
        "workers": FINETUNE_WORKERS,
        "sync_bytes": traced.sync_bytes,
        "trace_overhead": (untraced.examples / untraced.train_seconds)
                          / (traced.examples / traced.train_seconds),
    }
    metrics = layer_metrics(summary, LayerContext(family, traced.steps,
                                                  measured))
    same = traced.losses == untraced.losses
    notes = [f"traced window: {traced.steps} steps",
             f"traced and untraced job losses {'equal' if same else 'DIFFER'}"]
    if family == "finetune":
        notes.append("parallel.sync_bytes_per_step is computed from "
                     "parameter sizes and the worker count, not measured")
    failed = untraced.failed + traced.failed
    return result(correct=same and failed == 0
                  and _finite([untraced, traced]),
                  attempted=untraced.steps + traced.steps, failed=failed,
                  metrics=metrics, extra={},
                  inputs_digest=traced.inputs_digest, notes=notes)
