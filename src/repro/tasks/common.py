"""Shared task machinery: the predict protocol, span pooling, the loop.

Fine-tuning (Fig. 1, pipeline (2)) is identical across tasks: minibatch
examples, compute a task loss on top of encoder representations, Adam-step.
Task modules implement ``loss(examples) -> Tensor`` and plug into
:func:`finetune`.

Consumption (Fig. 1, the serve side) is unified the same way: every task
class implements the :class:`TaskPredictor` protocol —
``predict(examples, *, batch_size) -> list[Prediction]`` — which is the
single contract :mod:`repro.serve` dispatches through.  The shared
:class:`Prediction` record carries the task-specific label (a cell
coordinate, a class id, a value string, a table id, a SQL sketch), a
confidence score, and free-form extras.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

from ..nn import Adam, Tensor
# Imported only because benchmarks/perf/layers.py wraps it here.
from ..nn import clip_gradients  # noqa: F401
from ..models import TableEncoder
from ..parallel import ParallelConfig, shard_slices
from ..runtime import HealthConfig, TrainRecord
from ..trainloop import TrainLoop, sanitize_preflight

__all__ = [
    "Prediction", "TaskPredictor", "predict_in_batches",
    "FinetuneConfig", "finetune", "pooled_span", "minibatch_indices",
]


@dataclass(frozen=True)
class Prediction:
    """One task answer: label, confidence, optional extras.

    ``label`` is task-shaped — ``(row, column)`` for cell-selection QA,
    an ``int`` class for NLI, a value string for imputation, a label
    string for column typing, a table id for retrieval, a
    :class:`~repro.sql.SelectQuery` (or ``None``) for text-to-SQL.
    """

    label: Any
    score: float = 0.0
    extras: dict[str, Any] = field(default_factory=dict)


@runtime_checkable
class TaskPredictor(Protocol):
    """The unified inference contract every task class implements.

    ``predict`` accepts that task's example type, runs in eval mode with
    no autograd tape, chunks work into ``batch_size`` micro-batches, and
    returns one :class:`Prediction` per example, in order.
    """

    task_name: str

    def predict(self, examples: list, *,
                batch_size: int = 16) -> list["Prediction"]:
        ...


def predict_in_batches(module, examples: list, batch_size: int,
                       predict_batch: Callable[[list], list[Prediction]]
                       ) -> list[Prediction]:
    """Standard ``predict`` driver: inference scope + fixed-size chunks.

    The ``module.inference()`` scope puts every forward in eval mode with
    no autograd tape; training-time forwards outside it keep building one.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    predictions: list[Prediction] = []
    if not examples:
        return predictions
    with module.inference():
        for start in range(0, len(examples), batch_size):
            predictions.extend(predict_batch(examples[start:start + batch_size]))
    return predictions


# How many healthy steps between refreshes of the in-memory rollback
# snapshot the health guard falls back to after a bad-step streak.
_SNAPSHOT_EVERY = 8


@dataclass(frozen=True)
class FinetuneConfig:
    """Hyperparameters of a fine-tuning run."""

    epochs: int = 3
    batch_size: int = 8
    learning_rate: float = 2e-3
    grad_clip: float = 1.0
    seed: int = 0
    freeze_encoder: bool = False
    parallel: ParallelConfig | None = None   # None = one in-process shard

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")


def pooled_span(hidden: Tensor, batch_index: int,
                span: tuple[int, int]) -> Tensor:
    """Mean of hidden states over ``span`` for one batch element, ``(dim,)``.

    Falls back to the [CLS] position for empty spans so downstream heads
    always receive a vector.
    """
    start, end = span
    if end <= start:
        return hidden[batch_index, 0]
    return hidden[batch_index, start:end].mean(axis=0)


def minibatch_indices(count: int, batch_size: int,
                      rng: np.random.Generator | None = None):
    """Yield shuffled (if ``rng``) fixed-size index chunks of ``range(count)``.

    The index form is what the data-parallel path ships to workers —
    forked children index into their inherited example list, so example
    objects never cross a pipe.
    """
    order = np.arange(count)
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, count, batch_size):
        yield [int(i) for i in order[start:start + batch_size]]


def finetune(task, examples: list, config: FinetuneConfig | None = None,
             encoder: TableEncoder | None = None,
             health: HealthConfig | None = None,
             sanitize: bool = False,
             clock: Callable[[], float] = time.perf_counter
             ) -> list[TrainRecord]:
    """Generic fine-tuning loop; returns the per-step record history.

    Parameters
    ----------
    task:
        Module exposing ``loss(batch_of_examples) -> Tensor`` and
        ``parameters()``.
    encoder:
        When ``config.freeze_encoder`` is set, parameters belonging to this
        encoder are excluded from optimization (linear-probe fine-tuning).
    sanitize:
        Trace one preflight loss over the first batch before training and
        run :func:`~repro.analysis.sanitize_tape` over its graph (dead
        parameters, untouched ops, float64 creep, NaN-prone fan-out);
        findings are emitted through the runtime metrics registry as
        ``kind="sanitize"`` events.  No optimizer state is touched.
    health:
        Configuration of the numerical-health guard (defaults on).  Steps
        with a NaN/Inf loss or gradient never reach ``Adam.step``; a
        streak of bad steps restores the in-memory snapshot taken every
        8 good steps and backs off its learning rate, and a run that
        keeps diverging past ``max_rollbacks`` raises
        :class:`~repro.runtime.TrainingDivergedError`.
    clock:
        Injectable time source for ``record.wall_time`` (defaults to
        ``time.perf_counter``); pass a deterministic clock to make run
        histories byte-comparable.

    Returns
    -------
    One :class:`~repro.runtime.TrainRecord` per optimizer step, with
    ``epoch`` and ``batch_size`` as extras.

    Every step runs through :class:`~repro.trainloop.TrainLoop`.  With
    ``config.parallel`` set, each minibatch is cut into micro-shards
    whose gradients are computed across worker processes and combined by
    the fixed-order tree reduce of :mod:`repro.parallel` — results are
    bit-identical for any worker count, which is why that path refuses
    an encoder with active dropout.
    """
    config = config or FinetuneConfig()
    if not examples:
        raise ValueError("no fine-tuning examples provided")
    rng = np.random.default_rng(config.seed)

    parameters = list(task.parameters())
    if config.freeze_encoder:
        if encoder is None:
            raise ValueError("freeze_encoder requires the encoder argument")
        frozen = {id(p) for p in encoder.parameters()}
        parameters = [p for p in parameters if id(p) not in frozen]
        if not parameters:
            raise ValueError("freezing the encoder left nothing to train")
    optimizer = Adam(parameters, lr=config.learning_rate)
    loop = TrainLoop(optimizer, task, source="finetune",
                     grad_clip=config.grad_clip, health=health,
                     parallel=config.parallel, clock=clock)
    shard_size = loop.shard_size(config.batch_size)

    def shard_loss(payload: tuple[list[int], float]) -> tuple[Tensor, dict]:
        # Each shard's loss carries its n_shard/n_batch share, so the
        # fixed-order sum over shards is the mean over the batch.
        indices, weight = payload
        return task.loss([examples[i] for i in indices]) * weight, {}

    snapshot = (task.state_dict(), optimizer.state_dict())

    def restore() -> None:
        task.load_state_dict(snapshot[0])
        optimizer.load_state_dict(snapshot[1])

    task.train()
    if sanitize:
        first = list(range(min(config.batch_size, len(examples))))
        sanitize_preflight(shard_loss, (first, 1.0), task)
    history: list[TrainRecord] = []
    good_steps = 0
    try:
        for epoch in range(config.epochs):
            for batch in minibatch_indices(len(examples), config.batch_size,
                                           rng):
                started = clock()
                payloads = [(batch[rows], len(batch[rows]) / len(batch))
                            for rows in shard_slices(len(batch), shard_size)]
                record, _ = loop.step(
                    len(history), payloads, shard_loss, restore=restore,
                    extras=lambda totals: {"epoch": epoch,
                                           "batch_size": len(batch)},
                    started=started)
                history.append(record)
                if not record.extras.get("skipped"):
                    good_steps += 1
                    if good_steps % _SNAPSHOT_EVERY == 0:
                        snapshot = (task.state_dict(),
                                    optimizer.state_dict())
    finally:
        loop.close()
    task.eval()
    return history
