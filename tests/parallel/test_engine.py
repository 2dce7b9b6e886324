"""Unit tests for the engine layers: plan, reduce, workers, scheduling."""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.models import EncoderConfig
from repro.nn import Tensor
from repro.nn.module import Parameter
from repro.parallel import (
    DataParallelEngine,
    ParallelConfig,
    WorkerError,
    WorkerPool,
    assign_round_robin,
    shard_slices,
    tree_combine,
    tree_reduce_grads,
)
from repro.runtime import MetricsRegistry, using_registry

# Starts two idle workers, reports their pids, then dies without any
# chance to stop them — the way an OOM kill or `kill -9` ends a parent.
_ORPHAN_DRIVER = """
import os, signal
from repro.parallel import WorkerPool

pool = WorkerPool(2, lambda payload: ({}, {}), lambda arrays: None)
pool.start()
print(*(pool.handle(slot).process.pid for slot in pool.live_slots()),
      flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _reply(pool: WorkerPool, slot: int) -> list:
    """A slot's results, read through ``poll`` as the pool's owners do."""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        status, payload = pool.poll(slot, timeout=0.1)
        if status == "ok":
            return payload
        assert status in (None, "hb"), payload
        assert pool.failure(slot) is None
    raise AssertionError(f"slot {slot} never replied")


def _failure_within(pool: WorkerPool, slot: int, seconds: float = 5.0):
    """Poll a slot (draining heartbeats) until the pool declares it failed."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        pool.poll(slot, timeout=0.02)
        reason = pool.failure(slot)
        if reason is not None:
            return reason
    return None


def _exited(pid: int) -> bool:
    """Gone, or a zombie nobody has reaped yet: either way not running."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=0)
        with pytest.raises(ValueError):
            ParallelConfig(shard_size=-1)

    def test_auto_shard_size_ignores_workers(self):
        for workers in (1, 2, 3, 4, 7):
            assert ParallelConfig(workers=workers).resolve_shard_size(8) == 2
        assert ParallelConfig().resolve_shard_size(3) == 1
        assert ParallelConfig(shard_size=16).resolve_shard_size(4) == 4

    def test_numeric_signature_excludes_workers(self):
        one = ParallelConfig(workers=1, shard_size=2)
        four = ParallelConfig(workers=4, shard_size=2)
        assert one.numeric_signature(8) == four.numeric_signature(8)
        assert "workers" not in one.numeric_signature(8)


class TestPlan:
    def test_slices_cover_batch_in_order(self):
        slices = shard_slices(10, 3)
        covered = []
        for piece in slices:
            covered.extend(range(piece.start, piece.stop))
        assert covered == list(range(10))

    def test_round_robin_skips_idle_workers(self):
        assignment = assign_round_robin([0, 1, 2], workers=4)
        assert assignment == {0: [0], 1: [1], 2: [2]}


class TestReduce:
    def test_tree_combine_identity_semantics(self):
        value = np.ones(3)
        assert tree_combine([]) is None
        assert tree_combine([None, None]) is None
        assert tree_combine([None, value, None]) is value

    def test_permutation_invariance_is_bitwise(self):
        rng = np.random.default_rng(7)
        grads = [(i, {0: rng.standard_normal(5)
                      * 10.0 ** float(rng.integers(-3, 3))})
                 for i in range(6)]
        expected = tree_reduce_grads(grads, 6)
        shuffled = list(grads)
        rng.shuffle(shuffled)
        actual = tree_reduce_grads(shuffled, 6)
        assert np.array_equal(expected[0], actual[0])

    def test_missing_and_duplicate_shards_raise(self):
        with pytest.raises(ValueError, match="missing"):
            tree_reduce_grads([(0, {0: np.ones(2)})], 2)
        with pytest.raises(ValueError, match="duplicate"):
            tree_reduce_grads([(0, {0: np.ones(2)}), (0, {0: np.ones(2)})], 1)
        with pytest.raises(ValueError, match="out of range"):
            tree_reduce_grads([(5, {0: np.ones(2)})], 2)

    def test_union_keeps_untouched_params_absent(self):
        combined = tree_reduce_grads(
            [(0, {0: np.ones(2)}), (1, {1: np.ones(3)})], 2)
        assert set(combined) == {0, 1}


def build_toy_engine(workers: int):
    params = [Parameter(np.arange(6, dtype=np.float64).reshape(2, 3)),
              Parameter(np.ones(3))]

    def compute(payload):
        x, weight = payload
        loss = ((Tensor(x) @ params[0]) * params[1] * weight).sum()
        loss.backward()
        return {"loss": float(loss.data)}

    engine = DataParallelEngine(params, compute,
                                ParallelConfig(workers=workers))
    return engine, params


def toy_payloads(count: int = 4):
    rng = np.random.default_rng(0)
    return [(rng.standard_normal((2, 2)), 1.0 / count)
            for _ in range(count)]


class TestEngine:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_worker_count_is_pure_scheduling(self, workers):
        payloads = toy_payloads()
        with build_toy_engine(1)[0] as serial:
            expected = serial.step(payloads)
        with build_toy_engine(workers)[0] as engine:
            actual = engine.step(payloads)
        for index in expected.grads:
            assert np.array_equal(expected.grads[index],
                                  actual.grads[index])
        assert [s["loss"] for s in actual.stats] == \
            [s["loss"] for s in expected.stats]

    def test_load_grads_preserves_none_semantics(self):
        engine, params = build_toy_engine(1)
        engine.load_grads({0: np.ones((2, 3))})
        assert params[0].grad is not None
        assert params[1].grad is None

    def test_metrics_observed(self):
        registry = MetricsRegistry()
        with using_registry(registry):
            with build_toy_engine(1)[0] as engine:
                engine.step(toy_payloads())
        assert registry.histogram("parallel.shard_ms").count == 4
        assert registry.histogram("parallel.reduce_ms").count == 1
        assert registry.histogram("parallel.imbalance").count == 1
        assert registry.histogram("parallel.imbalance").min_value >= 0.0

    def test_empty_step_raises(self):
        with build_toy_engine(1)[0] as engine:
            with pytest.raises(ValueError):
                engine.step([])

    def test_worker_exception_propagates_with_traceback(self):
        params = [Parameter(np.ones(2))]

        def explode(payload):
            raise RuntimeError("shard went boom")

        with DataParallelEngine(params, explode,
                                ParallelConfig(workers=2)) as engine:
            with pytest.raises(WorkerError, match="shard went boom"):
                engine.step([(None,), (None,)])

    def test_close_is_idempotent(self):
        engine, _ = build_toy_engine(2)
        engine.step(toy_payloads())
        engine.close()
        engine.close()
        # a fresh pool is forked lazily if stepped again
        engine.step(toy_payloads())
        engine.close()


class TestWorkerPool:
    def test_rejects_invalid_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(0, lambda payload: ({}, {}), lambda arrays: None)

    def test_parameter_sync_reaches_children(self):
        params = [Parameter(np.zeros(3))]

        def compute(payload):
            # Children must see the freshly synced parameter bytes.
            return {}, {"seen": params[0].data.copy()}

        def sync(arrays):
            params[0].data[...] = arrays[0]

        pool = WorkerPool(1, compute, sync)
        try:
            pool.send(0, 0, [np.full(3, 7.0)], [(0, None)])
            [(index, grads, stats, _)] = _reply(pool, 0)
            assert index == 0
            assert np.array_equal(stats["seen"], np.full(3, 7.0))
        finally:
            pool.close()

    def test_workers_persist_across_steps(self):
        def compute(payload):
            import os
            return {}, {"pid": os.getpid()}

        pool = WorkerPool(1, compute, lambda arrays: None)
        try:
            pids = set()
            for step in range(3):
                pool.send(0, step, None, [(0, None)])
                [(_, _, stats, _)] = _reply(pool, 0)
                pids.add(stats["pid"])
            assert len(pids) == 1, "worker re-forked between steps"
        finally:
            pool.close()

    def test_close_escalates_to_sigkill_and_leaves_no_zombies(self):
        def stubborn(payload):
            # Ignore SIGTERM, then wedge: only SIGKILL can end this.
            import signal
            import time as _time
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            _time.sleep(600)
            return {}, {}

        pool = WorkerPool(2, stubborn, lambda arrays: None,
                          stop_grace=0.2, term_grace=0.2)
        pool.start()
        processes = [pool.handle(slot).process for slot in pool.live_slots()]
        pool.send(0, 0, None, [(0, None)])
        pool.send(1, 0, None, [(1, None)])
        import time as _time
        _time.sleep(0.3)  # let both workers enter the stubborn compute
        pool.close()
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode is not None, "zombie child after close"
        assert pool.live_slots() == []

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads process state from /proc")
    def test_children_exit_when_parent_is_killed(self):
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parents[2] / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (repo_src + os.pathsep + existing
                             if existing else repo_src)
        driver = subprocess.Popen([sys.executable, "-c", _ORPHAN_DRIVER],
                                  env=env, stdout=subprocess.PIPE, text=True)
        pids: list[int] = []
        try:
            pids = [int(pid) for pid in driver.stdout.readline().split()]
            assert driver.wait(timeout=60) == -signal.SIGKILL
            assert len(pids) == 2
            deadline = time.monotonic() + 10.0
            while (not all(_exited(pid) for pid in pids)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert all(_exited(pid) for pid in pids), \
                "a worker outlived its SIGKILLed parent"
        finally:
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            driver.stdout.close()

    def test_reap_then_respawn_increments_generation(self):
        pool = WorkerPool(1, lambda payload: ({}, {}), lambda arrays: None)
        try:
            pool.start()
            assert pool.handle(0).generation == 0
            pool.reap(0)
            assert pool.live_slots() == []
            handle = pool.spawn(0)
            assert handle.generation == 1
            pool.send(0, 0, None, [(0, None)])
            assert _reply(pool, 0)[0][0] == 0
        finally:
            pool.close()

    # -- the supervisor, with fast settings ------------------------------
    def test_idle_slot_never_fails_on_silence(self):
        pool = WorkerPool(1, lambda payload: ({}, {}), lambda arrays: None,
                          heartbeat_interval=0.05, heartbeat_timeout=0.2)
        try:
            pool.send(0, 0, None, [(0, None)])
            _reply(pool, 0)
            time.sleep(0.5)  # idle workers send no heartbeats
            assert pool.failure(0) is None
        finally:
            pool.close()

    def test_killed_slot_fails_as_died(self):
        pool = WorkerPool(1, lambda payload: ({}, {}), lambda arrays: None)
        try:
            pool.start()
            assert pool.failure(0) is None
            pool.handle(0).process.kill()
            pool.handle(0).process.join(timeout=10)
            assert pool.failure(0) == "worker process died (exitcode=-9)"
        finally:
            pool.close()

    def test_busy_silent_slot_fails_on_heartbeat_timeout(self):
        def wedged(payload):
            time.sleep(60)
            return {}, {}

        pool = WorkerPool(1, wedged, lambda arrays: None,
                          heartbeat_interval=60.0, heartbeat_timeout=0.3)
        try:
            pool.send(0, 0, None, [(0, None)])
            assert pool.failure(0) is None
            assert _failure_within(pool, 0) == "no heartbeat for 0.3s"
        finally:
            pool.reap(0)
            pool.close()

    def test_busy_beating_slot_fails_past_dispatch_deadline(self):
        def stuck(payload):
            time.sleep(60)
            return {}, {}

        pool = WorkerPool(1, stuck, lambda arrays: None,
                          heartbeat_interval=0.05, dispatch_deadline=0.2)
        try:
            pool.send(0, 0, None, [(0, None)])
            reason = _failure_within(pool, 0)
            assert reason == "dispatch deadline (0.2s) exceeded"
        finally:
            pool.reap(0)
            pool.close()

    def test_replace_respawns_then_retires(self):
        events = []
        pool = WorkerPool(1, lambda payload: ({}, {}), lambda arrays: None,
                          max_respawns=1, respawn_backoff=0.01,
                          on_event=lambda *event: events.append(event))
        try:
            pool.start()
            assert pool.replace(0, "first loss") is True
            assert pool.handle(0).generation == 1
            pool.send(0, 0, None, [(0, None)])
            assert _reply(pool, 0)[0][0] == 0
            assert pool.replace(0, "second loss") is False
            assert pool.live_slots() == []
        finally:
            pool.close()
        assert [action for action, _, _ in events] == [
            "worker_death", "worker_respawn", "worker_death", "pool_degraded"]
        assert events[0] == ("worker_death", 0, "first loss")
        assert events[1][2] == "respawn 1/1 after 0.01s backoff"


class TestPretrainerGuards:
    def test_dropout_rejected_under_parallelism(self, tokenizer, kb):
        from repro.core import create_model
        from repro.pretrain import Pretrainer, PretrainConfig

        config = EncoderConfig(
            vocab_size=len(tokenizer.vocab), dim=16, num_heads=2,
            num_layers=1, hidden_dim=32, max_position=128,
            num_entities=kb.num_entities, dropout=0.1)
        model = create_model("bert", tokenizer, config=config, seed=0)
        with pytest.raises(ValueError, match="dropout"):
            Pretrainer(model, PretrainConfig(
                parallel=ParallelConfig(workers=2)))


class TestFinetuneGuards:
    def test_dropout_rejected_under_parallelism(self, tokenizer, config,
                                                coltype_examples):
        from dataclasses import replace

        from repro.core import create_model
        from repro.tasks import ColumnTypePredictor, FinetuneConfig, \
            build_label_set, finetune

        model = create_model("bert", tokenizer,
                             config=replace(config, dropout=0.1), seed=0)
        task = ColumnTypePredictor(model, build_label_set(coltype_examples),
                                   np.random.default_rng(0))
        before = [p.data.copy() for p in task.parameters()]
        with pytest.raises(ValueError, match="dropout"):
            finetune(task, coltype_examples, FinetuneConfig(
                epochs=1, batch_size=4, parallel=ParallelConfig(workers=1)))
        assert all(np.array_equal(p.data, saved)
                   for p, saved in zip(task.parameters(), before))
        # The in-process path has no worker count to stay invariant to.
        history = finetune(task, coltype_examples,
                           FinetuneConfig(epochs=1, batch_size=4))
        assert len(history) == 4
        assert all(np.isfinite(record.loss) for record in history)
