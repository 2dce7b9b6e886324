"""The optimizer step both training loops share (Fig. 1: pretrain, fine-tune).

:meth:`~repro.pretrain.Pretrainer.train_step` and
:func:`~repro.tasks.finetune` call :meth:`TrainLoop.step` once per
optimizer step.  The loop owns everything after a batch has been cut
into weighted shard payloads:

- gradients from one ``shard_loss(payload) -> (loss, stats)`` function:
  in-process when ``parallel`` is ``None``, where
  :meth:`TrainLoop.shard_size` makes the whole batch one payload of
  weight 1, otherwise through a :class:`~repro.parallel.DataParallelEngine`
  created on the first step;
- the shard stats summed in shard order, gradient clipping and the
  :class:`~repro.runtime.HealthMonitor` verdict;
- the Adam step, a skip, or a rollback onto the owner's snapshot;
- the :class:`~repro.runtime.TrainRecord` and its ``train_step`` event.

Sampling, masking, payloads and snapshots stay with the owner, which
passes its callables to every step.  The loop keeps none of them, so it
holds no reference back to its owner and a finished trainer is freed by
reference counting alone.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Sequence

from .nn import Adam, Dropout, Module, Tensor, clip_gradients
from .parallel import DataParallelEngine, ParallelConfig, WorkerFailedError
from .runtime import (
    HealthConfig,
    HealthMonitor,
    TrainingDivergedError,
    TrainRecord,
    emit_train_record,
)

__all__ = ["ShardLoss", "TrainLoop", "sanitize_preflight"]

#: Builds one shard's loss graph: the loss (already scaled by the
#: shard's share of the batch; ``None`` when the shard has nothing to
#: train on) and JSON-able stats that are summed over the shards.
ShardLoss = Callable[[Any], "tuple[Tensor | None, dict]"]


def _backward(shard_loss: ShardLoss, payload: Any) -> dict:
    """Forward and backward one payload; its stats plus ``"loss"``."""
    loss, stats = shard_loss(payload)
    value = 0.0
    if loss is not None:
        value = float(loss.data)
        loss.backward()
    return {"loss": value, **stats}


def sanitize_preflight(shard_loss: ShardLoss, payload: Any, parameters):
    """Trace ``shard_loss`` over one payload and sanitize its graph.

    Runs :func:`~repro.analysis.sanitize_tape` over the loss graph (dead
    parameters, untouched ops, float64 creep, NaN-prone fan-out) with no
    backward and no optimizer step, emits the findings as
    ``kind="sanitize"`` events and returns the report.
    """
    from .analysis.tape import sanitize_tape, trace_tape

    with trace_tape() as tracer:
        loss, _ = shard_loss(payload)
    report = sanitize_tape(loss, parameters=parameters, traced=tracer.nodes)
    report.emit()
    return report


class TrainLoop:
    """The optimizer step shared by pretraining and fine-tuning.

    ``module`` is what the shard losses run; data-parallel training
    refuses it when any of its dropout layers is active.  ``schedule``
    sets Adam's rate before each update; without one the rate is Adam's
    own ``lr``.  Either way the rate is part of the owner's snapshot.
    """

    def __init__(self, optimizer: Adam, module: Module, *, source: str,
                 grad_clip: float, health: HealthConfig | None,
                 parallel: ParallelConfig | None,
                 clock: Callable[[], float], schedule=None) -> None:
        if parallel is not None and any(
                isinstance(layer, Dropout) and layer.p > 0.0
                for layer in module.modules()):
            raise ValueError(
                "data-parallel training requires dropout=0.0: a stochastic "
                "forward would consume per-module RNG in schedule-dependent "
                "order and break the bit-identity guarantee across worker "
                "counts")
        self.optimizer = optimizer
        self.source = source
        self.grad_clip = grad_clip
        self.health = HealthMonitor(health, source=source)
        self.parallel = parallel
        self.clock = clock
        self.schedule = schedule
        self._engine: DataParallelEngine | None = None

    def shard_size(self, batch_size: int) -> int:
        """Rows per shard payload: the whole batch without ``parallel``."""
        if self.parallel is None:
            return batch_size
        return self.parallel.resolve_shard_size(batch_size)

    def step(self, index: int, payloads: Sequence, shard_loss: ShardLoss, *,
             restore: Callable[[], object] | None,
             extras: Callable[[dict], dict], started: float,
             tokens: int = 0) -> tuple[TrainRecord, bool]:
        """One optimizer step; returns ``(record, rolled_back)``.

        ``payloads`` is the batch cut into shards, empty when the batch
        has nothing to train on (no gradient, no verdict).  ``restore``
        puts the owner back on its last snapshot, ``None`` while it has
        none.  ``extras`` maps the summed shard stats to the record's
        extras.  ``started`` is the owner's clock reading at the start of
        the step; the loop reads the clock once more, at its end.
        """
        optimizer = self.optimizer
        optimizer.zero_grad()
        totals = self._gradients(index, payloads, shard_loss)
        loss = totals.pop("loss", 0.0)
        grad_norm = 0.0
        skipped = rolled_back = False
        if payloads:
            grad_norm = clip_gradients(optimizer.parameters, self.grad_clip)
            verdict = self.health.check(index, loss, grad_norm)
            if verdict.ok:
                if self.schedule is not None:
                    optimizer.lr = self.schedule(index)
                optimizer.step()
            else:
                skipped = True
                optimizer.zero_grad()
                if verdict.rollback:
                    rolled_back = True
                    self._rollback(restore)
        record_extras = extras(totals)
        if skipped:
            record_extras["skipped"] = 1.0
        record = TrainRecord(
            step=index, loss=loss, lr=optimizer.lr, grad_norm=grad_norm,
            wall_time=self.clock() - started, tokens=tokens,
            extras=record_extras,
        )
        emit_train_record(record, source=self.source)
        return record, rolled_back

    def _gradients(self, index: int, payloads: Sequence,
                   shard_loss: ShardLoss) -> dict:
        """Fill ``.grad`` from ``payloads``; their stats summed in order."""
        if not payloads:
            return {}
        if self.parallel is None:
            stats = [_backward(shard_loss, payload) for payload in payloads]
        else:
            if self._engine is None:
                self._engine = DataParallelEngine(
                    self.optimizer.parameters,
                    functools.partial(_backward, shard_loss),
                    self.parallel, health=self.health)
            try:
                outcome = self._engine.step(payloads)
            except (BrokenPipeError, EOFError) as error:
                # The supervisor absorbs transport failures it can
                # attribute to a worker; anything that still escapes is
                # a typed operator error, not a raw pipe traceback.
                raise WorkerFailedError(
                    -1, index, f"worker transport failed: {error!r}"
                ) from error
            self._engine.load_grads(outcome.grads)
            stats = outcome.stats
        return {key: sum(s[key] for s in stats) for key in stats[0]}

    def _rollback(self, restore: Callable[[], object] | None) -> None:
        """Restore the owner's snapshot, then back off the restored rate."""
        health = self.health
        if health.rollback_exhausted():
            raise TrainingDivergedError(
                f"{self.source} diverged: {health.bad_steps} bad steps and "
                f"{health.rollbacks} rollbacks "
                f"(max {health.config.max_rollbacks})")
        if restore is None:
            raise TrainingDivergedError(
                f"{self.source} diverged before its first snapshot; no "
                f"state to roll back to")
        restore()
        rate = self.schedule if self.schedule is not None else self.optimizer
        rate.lr *= health.config.lr_backoff
        health.reset_window()

    def close(self) -> None:
        """Release worker processes; a later step re-forks them lazily."""
        if self._engine is not None:
            self._engine.close()
            self._engine = None
