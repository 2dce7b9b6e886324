"""Tests for the pretraining loop."""

import gc
import json
import weakref

import numpy as np
import pytest

from repro.core import create_model
from repro.corpus import build_coltype_dataset
from repro.nn.io import write_npz_atomic
from repro.parallel import FixedClock, ParallelConfig
from repro.pretrain import PretrainConfig, Pretrainer, masked_accuracy, IGNORE_INDEX
from repro.nn import Tensor
from repro.tasks import ColumnTypePredictor, FinetuneConfig, \
    build_label_set, finetune


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PretrainConfig(steps=0)
        with pytest.raises(ValueError):
            PretrainConfig(use_mlm=False, use_mer=False)


class TestMaskedAccuracy:
    def test_perfect_prediction(self):
        logits = np.zeros((1, 2, 3))
        logits[0, 0, 2] = 5.0
        logits[0, 1, 1] = 5.0
        targets = np.array([[2, 1]])
        assert masked_accuracy(Tensor(logits), targets) == 1.0

    def test_ignored_positions_excluded(self):
        logits = np.zeros((1, 2, 3))
        logits[0, 0, 2] = 5.0
        targets = np.array([[2, IGNORE_INDEX]])
        assert masked_accuracy(logits, targets) == 1.0

    def test_all_ignored_is_zero(self):
        logits = np.zeros((1, 2, 3))
        targets = np.full((1, 2), IGNORE_INDEX)
        assert masked_accuracy(logits, targets) == 0.0


class TestPretrainerMlm:
    def test_loss_decreases(self, bert, wiki_tables):
        config = PretrainConfig(steps=30, batch_size=4, learning_rate=3e-3,
                                mask_probability=0.3, seed=0)
        trainer = Pretrainer(bert, config)
        history = trainer.train(wiki_tables)
        early = np.mean([r.loss for r in history[:5]])
        late = np.mean([r.loss for r in history[-5:]])
        assert late < early

    def test_history_complete(self, bert, wiki_tables):
        config = PretrainConfig(steps=5, batch_size=2)
        trainer = Pretrainer(bert, config)
        history = trainer.train(wiki_tables)
        assert len(history) == 5
        assert [r.step for r in history] == list(range(5))
        assert all(r.learning_rate > 0 for r in history)

    def test_empty_corpus_rejected(self, bert):
        with pytest.raises(ValueError):
            Pretrainer(bert, PretrainConfig(steps=1)).train([])

    def test_model_left_in_eval_mode(self, bert, wiki_tables):
        Pretrainer(bert, PretrainConfig(steps=2, batch_size=2)).train(wiki_tables)
        assert not bert.training

    @pytest.mark.parametrize("parallel", [None, ParallelConfig(workers=1)],
                             ids=["serial", "workers1"])
    def test_finished_trainer_is_freed_without_gc(self, bert, wiki_tables,
                                                  parallel):
        # Nothing the trainer owns may refer back to it once train()
        # returns, or every finished trainer waits for the cycle collector.
        gc.collect()
        gc.disable()
        try:
            trainer = Pretrainer(bert, PretrainConfig(
                steps=2, batch_size=2, parallel=parallel))
            trainer.train(wiki_tables)
            alive = weakref.ref(trainer)
            del trainer
            assert alive() is None
        finally:
            gc.enable()

    def test_external_mlm_head_parameters_trained(self, bert, wiki_tables):
        trainer = Pretrainer(bert, PretrainConfig(steps=3, batch_size=2))
        before = trainer.mlm_head.transform.weight.data.copy()
        trainer.train(wiki_tables)
        assert not np.allclose(before, trainer.mlm_head.transform.weight.data)


class TestPretrainerTurl:
    def test_both_objectives_logged(self, turl, wiki_tables):
        config = PretrainConfig(steps=8, batch_size=4, mask_probability=0.3,
                                mer_mask_probability=0.5, seed=1)
        trainer = Pretrainer(turl, config)
        history = trainer.train(wiki_tables)
        assert any(r.mlm_loss > 0 for r in history)
        assert any(r.mer_loss > 0 for r in history)

    def test_mer_learning_progresses(self, turl, wiki_tables):
        config = PretrainConfig(steps=80, batch_size=8, learning_rate=5e-3,
                                use_mlm=False, mer_mask_probability=0.5, seed=2)
        trainer = Pretrainer(turl, config)
        history = trainer.train(wiki_tables)
        early_loss = np.mean([r.mer_loss for r in history[:10]])
        late_loss = np.mean([r.mer_loss for r in history[-10:]])
        assert late_loss < early_loss
        early_acc = np.mean([r.mer_accuracy for r in history[:10]])
        late_acc = np.mean([r.mer_accuracy for r in history[-10:]])
        assert late_acc > early_acc

    def test_mer_only_mode(self, turl, wiki_tables):
        config = PretrainConfig(steps=3, batch_size=2, use_mlm=False)
        history = Pretrainer(turl, config).train(wiki_tables)
        assert all(r.mlm_loss == 0 for r in history)


class TestSanitizeCheck:
    @pytest.mark.parametrize("parallel", [None, ParallelConfig(workers=1)],
                             ids=["serial", "workers1"])
    @pytest.mark.parametrize("name", ["bert", "turl", "coltype"])
    def test_preflight_leaves_checkpoint_bytes_unchanged(
            self, name, parallel, tokenizer, config, wiki_tables, tmp_path):
        # The preflight draws and masks one batch, then restores the
        # sampling RNG.  turl trains MLM+MER; workers=1 is the path
        # `repro pretrain` takes; coltype fine-tunes bert.
        archives = []
        for preflight in (False, True):
            path = tmp_path / f"run{int(preflight)}.npz"
            if name == "coltype":
                examples = build_coltype_dataset(wiki_tables)[:16]
                task = ColumnTypePredictor(
                    create_model("bert", tokenizer, config=config, seed=0),
                    build_label_set(examples), np.random.default_rng(0))
                history = finetune(
                    task, examples,
                    FinetuneConfig(epochs=2, batch_size=4, parallel=parallel),
                    sanitize=preflight, clock=FixedClock())
                records = json.dumps([r.to_dict() for r in history])
                write_npz_atomic(path, {**task.state_dict(),
                                        "history": np.array(records)})
            else:
                trainer = Pretrainer(
                    create_model(name, tokenizer, config=config, seed=0),
                    PretrainConfig(steps=8, batch_size=4, seed=0,
                                   parallel=parallel),
                    clock=FixedClock())
                if preflight:
                    trainer.sanitize_check(wiki_tables)
                trainer.train(wiki_tables)
                trainer.save_checkpoint(path)
            archives.append(path.read_bytes())
        assert archives[0] == archives[1]
