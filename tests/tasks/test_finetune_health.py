"""Health-guard behavior of the generic fine-tuning loop.

Uses a tiny synthetic task (no encoder) so the loop's skip/rollback
mechanics can be driven deterministically: the task's loss can be forced
to NaN for chosen steps.
"""

import gc

import numpy as np
import pytest

from repro.nn import Adam, Module, Parameter, Tensor
from repro.parallel import FixedClock, ParallelConfig
from repro.runtime import (
    HealthConfig,
    InMemorySink,
    MetricsRegistry,
    TrainingDivergedError,
    using_registry,
)
from repro.tasks import FinetuneConfig, finetune


class ToyTask(Module):
    """Minimize ``(w - target)^2``; NaN-able on selected loss calls."""

    def __init__(self, bad_calls=()):
        super().__init__()
        self.weight = Parameter(np.array([5.0]))
        self.bad_calls = set(bad_calls)
        self.calls = 0

    def loss(self, batch):
        self.calls += 1
        value = ((self.weight - 1.0) ** 2).sum()
        if self.calls in self.bad_calls:
            value.data = np.array(float("nan"))
        return value


def _run(task, steps, health=None, parallel=None, **options):
    examples = list(range(8))   # batch_size 8 -> one step per epoch
    config = FinetuneConfig(epochs=steps, batch_size=8, learning_rate=0.1,
                            parallel=parallel)
    return finetune(task, examples, config, health=health, **options)


PATHS = pytest.mark.parametrize(
    "parallel", [None, ParallelConfig(workers=1, shard_size=8)],
    ids=["serial", "workers1"])


class TestFinetuneHealthGuard:
    def test_clean_run_unchanged(self):
        task = ToyTask()
        history = _run(task, steps=10)
        assert len(history) == 10
        assert not any(r.extras.get("skipped") for r in history)
        assert float(task.weight.data[0]) < 5.0

    def test_nan_step_skipped(self):
        registry = MetricsRegistry()
        sink = registry.add_sink(InMemorySink())
        task = ToyTask(bad_calls={3})
        with using_registry(registry):
            history = _run(task, steps=6)
        skipped = [r for r in history if r.extras.get("skipped")]
        assert len(skipped) == 1 and skipped[0].step == 2
        events = sink.of_kind("health")
        assert len(events) == 1
        assert events[0]["source"] == "finetune"
        assert events[0]["reason"] == "non_finite_loss"

    @PATHS
    @pytest.mark.parametrize("bad_calls, steps", [
        ({4, 5}, 8),
        # Two rollbacks onto the initial snapshot: each restores its rate
        # of 0.1 and halves it, so the rate does not compound.
        ({3, 4, 5, 6}, 9),
    ], ids=["one-rollback", "two-rollbacks"])
    def test_rollback_restores_weights_and_backs_off_lr(self, parallel,
                                                        bad_calls, steps):
        health = HealthConfig(max_consecutive_bad=2, lr_backoff=0.5)
        task = ToyTask(bad_calls=bad_calls)
        history = _run(task, steps=steps, health=health, parallel=parallel)
        assert len(history) == steps
        # After the NaN streaks the guard rolled back to the initial
        # weights; three good steps at the reduced rate follow.
        assert history[-1].lr == 0.05
        assert float(task.weight.data[0]) == 4.850000001500001

    @PATHS
    def test_clock_is_read_twice_per_step(self, parallel):
        # Skipped and rolled-back steps after a sanitize preflight (which
        # makes the first loss call).
        inner = FixedClock()
        reads = []

        def clock():
            reads.append(inner())
            return reads[-1]

        health = HealthConfig(max_consecutive_bad=2, lr_backoff=0.5)
        history = _run(ToyTask(bad_calls={4, 5, 6, 7}), steps=9,
                       health=health, parallel=parallel, sanitize=True,
                       clock=clock)
        assert len(reads) == 2 * len(history) == 18

    @PATHS
    def test_no_optimizer_outlives_the_run_without_gc(self, parallel):
        health = HealthConfig(max_consecutive_bad=2)
        gc.collect()
        gc.disable()
        try:
            before = sum(isinstance(o, Adam) for o in gc.get_objects())
            _run(ToyTask(bad_calls={3, 4}), steps=4, health=health,
                 parallel=parallel)
            after = sum(isinstance(o, Adam) for o in gc.get_objects())
        finally:
            gc.enable()
        assert after == before

    def test_unrecoverable_divergence_raises(self):
        health = HealthConfig(max_consecutive_bad=1, max_rollbacks=1)
        task = ToyTask(bad_calls=set(range(1, 100)))
        with pytest.raises(TrainingDivergedError):
            _run(task, steps=20, health=health)
