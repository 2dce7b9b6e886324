"""Differential equivalence: parallel runs must equal serial runs, bitwise.

The engine's contract is that worker count is pure scheduling.  These
tests enforce it end-to-end at the strongest level available — the bytes
of saved checkpoint archives — for seeded 8-step pretraining and
fine-tuning runs across model families, plus the serial→parallel→serial
resume round-trip.
"""

import numpy as np
import pytest

from repro.nn.io import write_npz_atomic
from repro.parallel import FixedClock, ParallelConfig
from repro.pretrain import Pretrainer, PretrainConfig
from repro.tasks import FinetuneConfig, finetune
from repro.tasks.coltype import ColumnTypePredictor, build_label_set

MODEL_FAMILIES = ("bert", "tapas", "turl")


def pretrain_config(workers: int, **overrides) -> PretrainConfig:
    settings = dict(steps=8, batch_size=4, seed=0,
                    parallel=ParallelConfig(workers=workers, shard_size=1))
    settings.update(overrides)
    return PretrainConfig(**settings)


class TestPretrainDifferential:
    @pytest.mark.parametrize("name", MODEL_FAMILIES)
    def test_workers4_checkpoint_bytes_equal_serial(
            self, name, make_model, wiki_tables, tmp_path):
        archives = {}
        for workers in (1, 4):
            trainer = Pretrainer(make_model(name),
                                 pretrain_config(workers),
                                 clock=FixedClock())
            trainer.train(wiki_tables)
            path = trainer.save_checkpoint(tmp_path / f"{name}-w{workers}")
            archives[workers] = path.read_bytes()
        assert archives[1] == archives[4], (
            f"{name}: workers=4 checkpoint differs from workers=1")

    def test_worker_count_sweep_histories_identical(
            self, make_model, wiki_tables):
        histories = {}
        for workers in (1, 2, 3):
            trainer = Pretrainer(make_model("bert"),
                                 pretrain_config(workers, steps=4),
                                 clock=FixedClock())
            trainer.train(wiki_tables)
            histories[workers] = [r.to_dict() for r in trainer.history]
        assert histories[1] == histories[2] == histories[3]

    def test_serial_parallel_serial_resume_bit_identical(
            self, make_model, wiki_tables, tmp_path):
        # Reference: one uninterrupted workers=1 run (same config modulo
        # workers — checkpoint cadence is part of the saved config dict).
        reference = Pretrainer(make_model("bert"),
                               pretrain_config(1, checkpoint_every=4),
                               clock=FixedClock())
        reference.train(wiki_tables)
        expected = reference.save_checkpoint(
            tmp_path / "reference").read_bytes()

        # Same run split across engines: 4 steps with workers=4, then a
        # fresh workers=1 trainer resumes the snapshot and finishes.
        first = Pretrainer(make_model("bert"),
                           pretrain_config(4, checkpoint_every=4),
                           clock=FixedClock())
        snapshot_dir = tmp_path / "snapshots"
        first.train(wiki_tables, checkpoint_dir=snapshot_dir)
        intermediate = snapshot_dir / "ckpt-00000004.npz"
        assert intermediate.exists()

        resumed = Pretrainer(make_model("bert"),
                             pretrain_config(1, checkpoint_every=4),
                             clock=FixedClock())
        assert resumed.resume(intermediate) == 4
        resumed.train(wiki_tables)
        actual = resumed.save_checkpoint(tmp_path / "resumed").read_bytes()
        assert actual == expected

    def test_parallel_engine_released_after_train(
            self, make_model, wiki_tables):
        trainer = Pretrainer(make_model("bert"), pretrain_config(2, steps=2),
                             clock=FixedClock())
        trainer.train(wiki_tables)
        assert trainer._loop._engine is None

    def test_checkpoint_config_stores_numeric_signature_only(
            self, make_model, wiki_tables, tmp_path):
        trainer = Pretrainer(make_model("bert"),
                             pretrain_config(4, steps=2),
                             clock=FixedClock())
        trainer.train(wiki_tables)
        saved = trainer.capture().config
        assert saved["parallel"] == {"shard_size": 1}
        assert "workers" not in saved["parallel"]


class TestFinetuneDifferential:
    @pytest.mark.parametrize("name", MODEL_FAMILIES)
    def test_workers4_state_bytes_equal_serial(
            self, name, make_model, coltype_examples, tmp_path):
        labels = build_label_set(coltype_examples)
        results = {}
        for workers in (1, 4):
            task = ColumnTypePredictor(make_model(name), labels,
                                       np.random.default_rng(0))
            history = finetune(
                task, coltype_examples,
                FinetuneConfig(epochs=2, batch_size=4, seed=0,
                               parallel=ParallelConfig(workers=workers,
                                                       shard_size=1)),
                clock=FixedClock())
            path = write_npz_atomic(tmp_path / f"{name}-w{workers}.npz",
                                    task.state_dict())
            results[workers] = (path.read_bytes(),
                                [r.to_dict() for r in history])
        assert results[1][1] == results[4][1], (
            f"{name}: parallel fine-tune history diverged from serial")
        assert results[1][0] == results[4][0], (
            f"{name}: parallel fine-tune weights diverged from serial")
