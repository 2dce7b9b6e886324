"""inference_mode: tape-free forwards, bit-identical to grad mode."""

import numpy as np
import pytest

from repro.corpus import KnowledgeBase, generate_wiki_corpus
from repro.models import MODEL_CLASSES, EncoderConfig
from repro.nn import (
    Linear,
    Tensor,
    inference_mode,
    is_inference_mode,
)
from repro.text import train_tokenizer


class TestFlagSemantics:
    def test_default_off(self):
        assert not is_inference_mode()
        assert Tensor(1.0, requires_grad=True).requires_grad

    def test_enters_and_restores(self):
        with inference_mode():
            assert is_inference_mode()
            assert not Tensor(1.0, requires_grad=True).requires_grad
        assert not is_inference_mode()
        assert Tensor(1.0, requires_grad=True).requires_grad

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with inference_mode():
                raise RuntimeError("boom")
        assert not is_inference_mode()
        assert Tensor(1.0, requires_grad=True).requires_grad

    def test_nesting(self):
        with inference_mode():
            with inference_mode():
                assert is_inference_mode()
            assert is_inference_mode()
        assert not is_inference_mode()


class TestTapeFree:
    def test_no_parents_no_backward(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with inference_mode():
            y = (x * 2.0).relu().sum()
        assert y._parents == ()
        assert y._backward is None
        assert not y.requires_grad

    def test_module_inference_context(self):
        layer = Linear(4, 2, np.random.default_rng(0))
        layer.train()
        with layer.inference() as entered:
            assert entered is layer
            assert not layer.training
            assert is_inference_mode()
            out = layer(Tensor(np.ones((3, 4))))
        assert layer.training          # prior mode restored
        assert out._parents == ()

    def test_values_match_grad_mode(self):
        rng = np.random.default_rng(1)
        layer = Linear(8, 5, np.random.default_rng(0))
        x = Tensor(rng.normal(size=(4, 8)))
        expected = layer(x).data
        with inference_mode():
            actual = layer(x).data
        np.testing.assert_array_equal(actual, expected)


class TestBitIdenticalLogits:
    """Every model family forwards bit-identically with the tape off."""

    @pytest.fixture(scope="class")
    def setup(self):
        tables = generate_wiki_corpus(KnowledgeBase(seed=0), 4, seed=0)
        texts = []
        for table in tables:
            texts.append(table.context.text())
            texts.append(" ".join(table.header))
            texts.extend(cell.text() for _, _, cell in table.iter_cells())
        tokenizer = train_tokenizer(texts, vocab_size=400)
        config = EncoderConfig(
            vocab_size=len(tokenizer.vocab), dim=16, num_heads=2,
            num_layers=1, hidden_dim=32, max_position=160, num_entities=64,
        )
        return tables, tokenizer, config

    @pytest.mark.parametrize("name", sorted(MODEL_CLASSES))
    def test_model_family(self, setup, name):
        tables, tokenizer, config = setup
        model = MODEL_CLASSES[name](config, tokenizer,
                                    np.random.default_rng(0))
        # TAPEX is an encoder-decoder wrapper; its table encoder half is
        # the forward the serving path exercises.
        encoder = model.encoder if name == "tapex" else model
        encoder.eval()
        batch, _ = encoder.batch(tables[:2])
        expected = encoder(batch)
        with inference_mode():
            actual = encoder(batch)
        np.testing.assert_array_equal(actual.data, expected.data)
        assert actual._parents == ()
        assert actual._backward is None
