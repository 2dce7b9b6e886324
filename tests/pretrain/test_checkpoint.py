"""Fault-tolerance tests: checkpoint/resume, crash recovery, health guard."""

import numpy as np
import pytest

import repro.pretrain.trainer as trainer_module
from repro.nn import CheckpointError
from repro.parallel import FixedClock, ParallelConfig
from repro.pretrain import Pretrainer, PretrainConfig, TrainerCheckpoint
from repro.runtime import (
    HealthConfig,
    InMemorySink,
    MetricsRegistry,
    TrainingDivergedError,
    using_registry,
)


def _strip_wall_time(record):
    payload = record.to_dict()
    payload.pop("wall_time")
    return payload


def _assert_same_weights(a, b):
    state_a, state_b = a.state_dict(), b.state_dict()
    assert set(state_a) == set(state_b)
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name])


class TestResumeDeterminism:
    def test_resume_is_bit_identical(self, config, tokenizer, wiki_tables,
                                     tmp_path):
        from repro.models import TableBert

        pretrain = PretrainConfig(steps=10, batch_size=4, seed=3,
                                  checkpoint_every=5)
        straight = Pretrainer(TableBert(config, tokenizer,
                                        np.random.default_rng(0)), pretrain)
        straight_history = straight.train(wiki_tables)

        interrupted = Pretrainer(TableBert(config, tokenizer,
                                           np.random.default_rng(0)), pretrain)
        interrupted.train(wiki_tables, checkpoint_dir=tmp_path)
        mid = tmp_path / "ckpt-00000005.npz"
        assert mid.exists()

        resumed = Pretrainer(TableBert(config, tokenizer,
                                       np.random.default_rng(0)), pretrain)
        assert resumed.resume(mid) == 5
        resumed_history = resumed.train(wiki_tables)

        assert len(resumed_history) == len(straight_history) == 10
        for lhs, rhs in zip(straight_history, resumed_history):
            assert _strip_wall_time(lhs) == _strip_wall_time(rhs)
        _assert_same_weights(straight.model, resumed.model)
        straight_opt = straight.optimizer.state_dict()
        resumed_opt = resumed.optimizer.state_dict()
        assert straight_opt["step_count"] == resumed_opt["step_count"]
        for slot in ("_m", "_v"):
            for lhs, rhs in zip(straight_opt[slot], resumed_opt[slot]):
                np.testing.assert_array_equal(lhs, rhs)

    def test_in_memory_roundtrip(self, bert, wiki_tables):
        trainer = Pretrainer(bert, PretrainConfig(steps=4, batch_size=2))
        trainer.train(wiki_tables)
        checkpoint = trainer.capture()
        assert checkpoint.step == 4
        assert trainer.restore(checkpoint) == 4

    def test_disk_roundtrip_preserves_rng(self, bert, wiki_tables, tmp_path):
        trainer = Pretrainer(bert, PretrainConfig(steps=3, batch_size=2))
        trainer.train(wiki_tables)
        path = trainer.save_checkpoint(tmp_path / "ckpt")
        loaded = TrainerCheckpoint.load(path)
        assert loaded.rng_state == trainer.rng.bit_generator.state
        assert loaded.step == 3
        assert loaded.schedule_lr == trainer.schedule.lr

    def test_resume_rejects_mismatched_config(self, config, tokenizer,
                                              wiki_tables, tmp_path):
        from repro.models import TableBert

        trainer = Pretrainer(TableBert(config, tokenizer,
                                       np.random.default_rng(0)),
                             PretrainConfig(steps=3, batch_size=2, seed=1))
        trainer.train(wiki_tables)
        path = trainer.save_checkpoint(tmp_path / "ckpt")

        other = Pretrainer(TableBert(config, tokenizer,
                                     np.random.default_rng(0)),
                           PretrainConfig(steps=3, batch_size=2, seed=2))
        with pytest.raises(CheckpointError, match="seed"):
            other.resume(path)


class TestTrainReentry:
    def test_second_train_call_raises(self, bert, wiki_tables):
        trainer = Pretrainer(bert, PretrainConfig(steps=2, batch_size=2))
        trainer.train(wiki_tables)
        with pytest.raises(RuntimeError, match="already completed"):
            trainer.train(wiki_tables)

    def test_resume_then_train_continues(self, bert, wiki_tables, tmp_path):
        trainer = Pretrainer(bert, PretrainConfig(steps=4, batch_size=2,
                                                  checkpoint_every=2))
        trainer.train(wiki_tables, checkpoint_dir=tmp_path)
        resumed = Pretrainer(bert, PretrainConfig(steps=4, batch_size=2,
                                                  checkpoint_every=2))
        assert resumed.resume(tmp_path / "ckpt-00000002.npz") == 2
        assert len(resumed.train(wiki_tables)) == 4


class TestSnapshotsAndRecovery:
    def test_retention_keeps_last_k(self, bert, wiki_tables, tmp_path):
        trainer = Pretrainer(bert, PretrainConfig(
            steps=8, batch_size=2, checkpoint_every=2, keep_checkpoints=2))
        trainer.train(wiki_tables, checkpoint_dir=tmp_path)
        snapshots = sorted(p.name for p in tmp_path.glob("ckpt-*.npz"))
        assert snapshots == ["ckpt-00000006.npz", "ckpt-00000008.npz"]
        # Pruned snapshots take their manifests with them.
        manifests = sorted(p.name for p in tmp_path.glob("*.manifest.json"))
        assert manifests == ["ckpt-00000006.npz.manifest.json",
                             "ckpt-00000008.npz.manifest.json"]

    def test_resume_dir_falls_back_past_truncated_newest(self, bert,
                                                         wiki_tables,
                                                         tmp_path):
        trainer = Pretrainer(bert, PretrainConfig(
            steps=6, batch_size=2, checkpoint_every=3))
        trainer.train(wiki_tables, checkpoint_dir=tmp_path)
        newest = tmp_path / "ckpt-00000006.npz"
        # Crash mid-write: newest archive is truncated.
        newest.write_bytes(newest.read_bytes()[:64])

        resumed = Pretrainer(bert, PretrainConfig(
            steps=6, batch_size=2, checkpoint_every=3))
        assert resumed.resume(tmp_path) == 3

    def test_resume_explicit_corrupt_file_falls_back(self, bert, wiki_tables,
                                                     tmp_path):
        trainer = Pretrainer(bert, PretrainConfig(
            steps=6, batch_size=2, checkpoint_every=3))
        trainer.train(wiki_tables, checkpoint_dir=tmp_path)
        newest = tmp_path / "ckpt-00000006.npz"
        newest.write_bytes(b"not a zip archive")

        resumed = Pretrainer(bert, PretrainConfig(
            steps=6, batch_size=2, checkpoint_every=3))
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resumed.resume(newest) == 3

    def test_resume_empty_dir_raises(self, bert, tmp_path):
        trainer = Pretrainer(bert, PretrainConfig(steps=2))
        with pytest.raises(CheckpointError, match="no valid"):
            trainer.resume(tmp_path)

    def test_no_tmp_files_left_behind(self, bert, wiki_tables, tmp_path):
        trainer = Pretrainer(bert, PretrainConfig(
            steps=4, batch_size=2, checkpoint_every=2))
        trainer.train(wiki_tables, checkpoint_dir=tmp_path)
        assert not list(tmp_path.glob("*.tmp"))


class TestHealthGuard:
    @pytest.fixture
    def nan_injector(self, monkeypatch):
        """Make ``mlm_loss`` return NaN on selected call indices."""
        original = trainer_module.mlm_loss
        state = {"call": 0, "bad_calls": set()}

        def wrapped(logits, masked):
            state["call"] += 1
            loss = original(logits, masked)
            if state["call"] in state["bad_calls"]:
                loss.data = np.array(float("nan"))
            return loss

        monkeypatch.setattr(trainer_module, "mlm_loss", wrapped)
        return state

    def test_nan_step_skipped_and_emitted(self, bert, wiki_tables,
                                          nan_injector):
        nan_injector["bad_calls"] = {3}
        registry = MetricsRegistry()
        sink = registry.add_sink(InMemorySink())
        trainer = Pretrainer(bert, PretrainConfig(steps=6, batch_size=2))
        adam_steps = {"n": 0}
        real_step = trainer.optimizer.step

        def counting_step():
            adam_steps["n"] += 1
            real_step()

        trainer.optimizer.step = counting_step
        with using_registry(registry):
            history = trainer.train(wiki_tables)

        skipped = [r for r in history if r.extras.get("skipped")]
        assert len(skipped) == 1 and np.isnan(skipped[0].loss)
        assert adam_steps["n"] == 5  # the NaN never reached Adam.step
        events = sink.of_kind("health")
        assert len(events) == 1
        assert events[0]["reason"] == "non_finite_loss"
        assert events[0]["status"] == "bad_step"

    def test_rollback_after_streak_recovers(self, bert, wiki_tables,
                                            nan_injector):
        # Three consecutive NaN steps trigger a rollback to the last good
        # checkpoint with a halved base LR; the replayed (clean) steps
        # then complete the run.
        nan_injector["bad_calls"] = {4, 5, 6}
        config = PretrainConfig(
            steps=6, batch_size=2, checkpoint_every=2,
            health=HealthConfig(max_consecutive_bad=3, lr_backoff=0.5))
        trainer = Pretrainer(bert, config)
        base_lr = trainer.schedule.lr
        history = trainer.train(wiki_tables)
        assert len(history) == 6
        assert not any(r.extras.get("skipped") for r in history)
        assert trainer.health.rollbacks == 1
        assert trainer.schedule.lr == pytest.approx(base_lr * 0.5)

    @pytest.mark.parametrize(
        "parallel", [None, ParallelConfig(workers=1, shard_size=4)],
        ids=["serial", "workers1"])
    @pytest.mark.parametrize(
        "bad_calls, checkpoint_every, steps, rollbacks, lr", [
            # Two rollbacks onto the initial snapshot back off its rate
            # once each: the rate does not compound.
            ({3, 4, 6, 7}, 0, 8, 2, 0.0015),
            # The cadence re-captures the snapshot it rolled back onto,
            # backed-off rate included, so the second rollback compounds.
            ({5, 6, 8, 9}, 2, 8, 2, 0.00075),
            # A rollback onto the initial snapshot of a run that also
            # snapshots at a cadence (once crashed with IndexError).
            ({2, 3}, 4, 6, 1, 0.0015),
        ], ids=["initial", "cadence", "initial-with-cadence"])
    def test_rollback_backs_off_the_restored_rate(
            self, bert, wiki_tables, nan_injector, parallel, bad_calls,
            checkpoint_every, steps, rollbacks, lr):
        nan_injector["bad_calls"] = bad_calls
        trainer = Pretrainer(bert, PretrainConfig(
            steps=steps, batch_size=4, checkpoint_every=checkpoint_every,
            health=HealthConfig(max_consecutive_bad=2, lr_backoff=0.5),
            parallel=parallel))
        history = trainer.train(wiki_tables)
        assert len(history) == steps
        assert not any(r.extras.get("skipped") for r in history)
        assert trainer.health.rollbacks == rollbacks
        assert trainer.schedule.lr == lr

    @pytest.mark.parametrize(
        "parallel", [None, ParallelConfig(workers=1, shard_size=4)],
        ids=["serial", "workers1"])
    def test_clock_is_read_twice_per_step(self, bert, wiki_tables,
                                          nan_injector, parallel):
        # benchmarks/perf/train.py turns consecutive clock reads into step
        # times.  Covers good, skipped, rolled-back and snapshot steps
        # after a sanitize preflight (which makes the first mlm_loss call).
        nan_injector["bad_calls"] = {4, 5, 7, 8}
        registry = MetricsRegistry()
        sink = registry.add_sink(InMemorySink())
        inner = FixedClock()
        reads = []

        def clock():
            reads.append(inner())
            return reads[-1]

        trainer = Pretrainer(bert, PretrainConfig(
            steps=6, batch_size=4, checkpoint_every=2,
            health=HealthConfig(max_consecutive_bad=2), parallel=parallel),
            clock=clock)
        with using_registry(registry):
            trainer.sanitize_check(wiki_tables)
            trainer.train(wiki_tables)
        attempted = len(sink.of_kind("train_step"))
        assert trainer.health.rollbacks == 2 and attempted > 6
        assert len(reads) == 2 * attempted

    def test_unrecoverable_divergence_raises(self, bert, wiki_tables,
                                             monkeypatch):
        def always_nan(logits, masked):
            from repro.nn import Tensor
            return Tensor(np.array(float("nan")), requires_grad=True)

        monkeypatch.setattr(trainer_module, "mlm_loss", always_nan)
        config = PretrainConfig(
            steps=6, batch_size=2,
            health=HealthConfig(max_consecutive_bad=2, max_rollbacks=1))
        trainer = Pretrainer(bert, config)
        with pytest.raises(TrainingDivergedError):
            trainer.train(wiki_tables)
