"""Eager vs compiled replay must agree bit-for-bit, logits to checkpoints.

The compiled executor's contract is exact: recording a step is an
ordinary eager step observed by a passive recorder, and replays re-run
the same backend ops in the same order on the same arrays.  These tests
enforce the contract at the strongest level available — raw array bytes
for inference logits and gradients, and whole checkpoint archives for
training runs — across every golden-fixture model family.
"""

import numpy as np
import pytest

from repro.nn import Parameter, TapeExecutor, record_program
from repro.parallel import FixedClock
from repro.pretrain import Pretrainer, PretrainConfig

from .conftest import FAMILIES


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def hidden_bytes(model, tables):
    batch, _ = model.batch(tables)
    with model.inference():
        return model(batch).data


def compiled_config(**overrides) -> PretrainConfig:
    settings = dict(steps=8, batch_size=4, seed=0, compile=True)
    settings.update(overrides)
    return PretrainConfig(**settings)


class TestCompiledInference:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_hidden_states_bitwise_equal_eager(self, name, make_model,
                                               wiki_tables):
        model = make_model(name)
        first, second = wiki_tables[:4], wiki_tables[4:10]
        eager_first = hidden_bytes(model, first)
        eager_second = hidden_bytes(model, second)

        model.enable_compiled_inference()
        # Recording pass (cache miss) and replay pass (cache hit) must
        # both reproduce the eager forward exactly, per batch signature.
        assert same_bytes(hidden_bytes(model, first), eager_first)
        assert same_bytes(hidden_bytes(model, first), eager_first)
        assert same_bytes(hidden_bytes(model, second), eager_second)
        assert same_bytes(hidden_bytes(model, second), eager_second)

        cache = model._compiled_inference.cache
        assert len(cache) == 2  # one program per padded-batch signature
        for executor in cache._executors.values():
            # Everything batch-dependent must be bound per replay, not
            # frozen into the program at record time.
            assert not executor.program.baked_arrays

    @pytest.mark.parametrize("name", FAMILIES)
    def test_replay_sees_live_weight_updates(self, name, make_model,
                                             wiki_tables):
        model = make_model(name)
        tables = wiki_tables[:4]
        eager = hidden_bytes(model, tables)
        model.enable_compiled_inference()
        hidden_bytes(model, tables)  # record

        parameter = next(iter(model.parameters()))
        original = parameter.data.copy()
        parameter.data += 0.25
        assert not same_bytes(hidden_bytes(model, tables), eager)
        parameter.data[...] = original
        assert same_bytes(hidden_bytes(model, tables), eager)


class TestCompiledTraining:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_replayed_gradients_bitwise_equal_eager(self, name, make_model,
                                                    wiki_tables):
        # A 4-table corpus with batch_size=4 keeps the padded batch
        # signature constant, so every step after the first is a
        # guaranteed cache hit — the gradients compared here come from
        # the replayed backward sweep, not from recording.
        corpus = wiki_tables[:4]
        grads = {}
        for compile_flag in (False, True):
            trainer = Pretrainer(
                make_model(name),
                compiled_config(steps=4, compile=compile_flag),
                clock=FixedClock())
            trainer.train(corpus)
            if compile_flag:
                assert len(trainer._programs) >= 1
                assert len(trainer._programs) < trainer.config.steps
            grads[compile_flag] = [
                None if p.grad is None else p.grad.copy()
                for p in trainer.optimizer.parameters]
            grads[f"history-{compile_flag}"] = [
                r.to_dict() for r in trainer.history]
        assert grads["history-False"] == grads["history-True"]
        assert len(grads[False]) == len(grads[True])
        for eager, replayed in zip(grads[False], grads[True]):
            if eager is None:
                assert replayed is None
            else:
                assert same_bytes(eager, replayed)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_checkpoint_bytes_equal_eager(self, name, make_model,
                                          wiki_tables, tmp_path):
        archives = {}
        for compile_flag in (False, True):
            trainer = Pretrainer(make_model(name),
                                 compiled_config(compile=compile_flag),
                                 clock=FixedClock())
            trainer.train(wiki_tables)
            path = trainer.save_checkpoint(
                tmp_path / f"{name}-compile{int(compile_flag)}")
            archives[compile_flag] = path.read_bytes()
        assert archives[False] == archives[True], (
            f"{name}: compiled checkpoint differs from eager")

    @pytest.mark.parametrize("name", ("bert", "turl"))
    def test_sanitize_preflight_leaves_bytes_identical(
            self, name, make_model, wiki_tables, tmp_path):
        # turl exercises the MLM+MER combined objective graph.
        plain = Pretrainer(make_model(name), compiled_config(),
                           clock=FixedClock())
        plain.train(wiki_tables)
        expected = plain.save_checkpoint(tmp_path / "plain").read_bytes()

        sanitized = Pretrainer(make_model(name), compiled_config(),
                               clock=FixedClock())
        sanitized.sanitize_check(wiki_tables)
        sanitized.train(wiki_tables)
        actual = sanitized.save_checkpoint(tmp_path / "san").read_bytes()
        assert actual == expected

    def test_eager_and_compiled_checkpoints_resume_interchangeably(
            self, make_model, wiki_tables, tmp_path):
        # ``compile`` is pure execution strategy, not numeric identity:
        # a compiled run's snapshot resumes under an eager trainer (and
        # vice versa) without tripping the config-compatibility check.
        recorded = Pretrainer(make_model("bert"),
                              compiled_config(checkpoint_every=4),
                              clock=FixedClock())
        snapshot_dir = tmp_path / "snapshots"
        recorded.train(wiki_tables, checkpoint_dir=snapshot_dir)
        expected = recorded.save_checkpoint(tmp_path / "full").read_bytes()

        resumed = Pretrainer(make_model("bert"),
                             compiled_config(checkpoint_every=4,
                                             compile=False),
                             clock=FixedClock())
        assert resumed.resume(snapshot_dir / "ckpt-00000004.npz") == 4
        resumed.train(wiki_tables)
        assert resumed.save_checkpoint(
            tmp_path / "resumed").read_bytes() == expected


class TestGradientBufferFirstWrite:
    def test_negative_zero_contribution_lands_as_positive_zero(self):
        # relu sends ``-1.0 * False = -0.0`` back to its negative inputs,
        # so every first contribution to ``weight``'s gradient buffer
        # holds -0.0.  Eager writes ``0.0 + g`` (+0.0); replay's first
        # write into its pooled and parameter buffers must do the same.
        weight = Parameter(np.array([[-1.0, 2.0], [3.0, -4.0]]))

        def step():
            return {"loss": -(weight.relu().sum())}

        program, outputs = record_program(step, {}, loss="loss")
        outputs["loss"].backward()
        eager = weight.grad.copy()
        assert eager.tobytes() == np.array([[0.0, -1.0],
                                            [-1.0, 0.0]]).tobytes()

        executor = TapeExecutor(program)
        for _ in range(2):  # fresh buffers, then reused ones
            weight.grad = None
            executor.run({})
            executor.backward()
            assert same_bytes(weight.grad, eager)
