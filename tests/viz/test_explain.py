"""Tests for saliency and attention attribution."""

import numpy as np
import pytest

from repro.models import MODEL_CLASSES, EncoderConfig, TableBert, Tapas
from repro.tables import Table, TableContext
from repro.text import train_tokenizer
from repro.viz import (
    attention_attribution,
    explain_scalar,
    gradient_saliency,
    render_attribution,
)


@pytest.fixture(scope="module")
def tokenizer():
    return train_tokenizer(
        ["country capital population australia canberra france paris japan "
         "tokyo | ; - what is the"] * 4, vocab_size=500)


@pytest.fixture(scope="module")
def model(tokenizer):
    config = EncoderConfig(vocab_size=len(tokenizer.vocab), dim=16,
                           num_heads=2, num_layers=2, hidden_dim=32,
                           max_position=160)
    return TableBert(config, tokenizer, np.random.default_rng(0))


@pytest.fixture
def table():
    return Table(
        ["country", "capital"],
        [["australia", "canberra"], ["france", "paris"]],
        context=TableContext(title="capital by country"),
        table_id="t",
    )


class TestGradientSaliency:
    def test_scores_cover_all_cells(self, model, table):
        attribution = gradient_saliency(model, table)
        assert set(attribution.scores) == {(r, c) for r in range(2)
                                           for c in range(2)}
        assert attribution.method == "gradient-x-input"

    def test_scores_nonnegative_finite(self, model, table):
        attribution = gradient_saliency(model, table)
        for score in attribution.scores.values():
            assert np.isfinite(score)
            assert score >= 0.0

    def test_model_gradients_cleared(self, model, table):
        gradient_saliency(model, table)
        assert all(p.grad is None for p in model.parameters())

    def test_training_mode_restored(self, model, table):
        model.train()
        gradient_saliency(model, table)
        assert model.training
        model.eval()

    def test_custom_scalar_targets_specific_cell(self, model, table):
        """Explaining a single cell's own representation must rank that
        cell's input as most relevant."""
        batch, serialized = model.batch([table], [None])
        start, end = serialized[0].cell_spans[(1, 1)]  # paris

        def scalar(hidden):
            span = hidden[0, start:end]
            return (span * span).sum()

        attribution = gradient_saliency(model, table, scalar_fn=scalar)
        top_cell, _ = attribution.top_cells(1)[0]
        assert top_cell == (1, 1)

    def test_rejects_nonscalar(self, model, table):
        with pytest.raises(ValueError):
            gradient_saliency(model, table, scalar_fn=lambda h: h[:, 0])

    @pytest.mark.parametrize("name", sorted(set(MODEL_CLASSES) - {"tapex"}))
    def test_explains_the_states_the_model_computes(self, name, tokenizer,
                                                    table):
        # Every stack, mask and bias of the family: TaBERT's vertical
        # layers, TABBIE's column view and TUTA's tree bias included.
        config = EncoderConfig(vocab_size=len(tokenizer.vocab), dim=16,
                               num_heads=2, num_layers=2, hidden_dim=32,
                               max_position=160, num_entities=8)
        model = MODEL_CLASSES[name](config, tokenizer,
                                    np.random.default_rng(0))
        batch, _ = model.batch([table], ["what is the capital"])
        seen = []

        def scalar(hidden):
            seen.append(hidden.numpy().copy())
            return (hidden * hidden).sum()

        explain_scalar(model, batch, scalar)
        model.eval()
        assert seen[0].tobytes() == model(batch).numpy().tobytes()


class TestAttentionAttribution:
    def test_scores_sum_under_one(self, model, table):
        attribution = attention_attribution(model, table)
        assert attribution.method == "attention"
        total = sum(attribution.scores.values())
        assert 0.0 <= total <= 1.0 + 1e-6

    def test_works_for_structured_models(self, tokenizer, table):
        config = EncoderConfig(vocab_size=len(tokenizer.vocab), dim=16,
                               num_heads=2, num_layers=1, hidden_dim=32,
                               max_position=160)
        tapas = Tapas(config, tokenizer, np.random.default_rng(0))
        attribution = attention_attribution(tapas, table)
        assert attribution.scores


class TestAttributionHelpers:
    def test_top_cells_sorted(self, model, table):
        attribution = gradient_saliency(model, table)
        top = attribution.top_cells(4)
        scores = [s for _, s in top]
        assert scores == sorted(scores, reverse=True)

    def test_normalized_sums_to_one(self, model, table):
        normalized = gradient_saliency(model, table).normalized()
        assert sum(normalized.scores.values()) == pytest.approx(1.0)

    def test_render_contains_values_and_bars(self, model, table):
        text = render_attribution(gradient_saliency(model, table))
        assert "france" in text
        assert len(text.splitlines()) == 3  # header + 2 rows
