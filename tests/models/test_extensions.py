"""Tests for the extension models (TABBIE, TUTA) and the numeric channel."""

import numpy as np
import pytest

from repro.models import (
    EncoderConfig,
    Tabbie,
    TableBert,
    Tuta,
    dense_mask,
    horizontal_mask,
    tree_distance_bias,
)
from repro.serialize import RowMajorSerializer, encode_features, pad_batch
from repro.tables import Table


@pytest.fixture(scope="module")
def grid(tokenizer):
    table = Table(
        ["Country", "Capital"],
        [["Australia", "Canberra"], ["France", "Paris"], ["Japan", "Tokyo"]],
    )
    serializer = RowMajorSerializer(tokenizer)
    serialized = serializer.serialize(table, context="population by country")
    batch = pad_batch([encode_features(serialized)], pad_id=0)
    return batch, serialized


def cell_start(serialized, row, col):
    return serialized.cell_spans[(row, col)][0]


class TestHorizontalMask:
    def test_same_row_visible(self, grid):
        batch, serialized = grid
        mask = horizontal_mask(batch)
        q = cell_start(serialized, 1, 0)
        k = cell_start(serialized, 1, 1)
        assert not mask[0, 0, q, k]

    def test_other_row_blocked(self, grid):
        batch, serialized = grid
        mask = horizontal_mask(batch)
        q = cell_start(serialized, 1, 0)
        k = cell_start(serialized, 2, 0)  # same column, different row
        assert mask[0, 0, q, k]

    def test_headers_visible_to_cells(self, grid):
        batch, serialized = grid
        mask = horizontal_mask(batch)
        q = cell_start(serialized, 1, 0)
        header_start, _ = serialized.header_spans[0]
        assert not mask[0, 0, q, header_start]


class TestTreeDistanceBias:
    def test_shape(self, grid):
        batch, _ = grid
        bias = tree_distance_bias(batch)
        assert bias.shape == (1, 1, batch.seq_len, batch.seq_len)

    def test_distance_ordering(self, grid):
        batch, serialized = grid
        bias = tree_distance_bias(batch, strength=2.0)[0, 0]
        q = cell_start(serialized, 1, 0)
        same_cell = bias[q, q]
        same_row = bias[q, cell_start(serialized, 1, 1)]
        unrelated = bias[q, cell_start(serialized, 2, 1)]
        assert same_cell == 0.0
        assert same_row == -2.0
        assert unrelated == -4.0

    def test_context_is_root(self, grid):
        batch, serialized = grid
        bias = tree_distance_bias(batch)[0, 0]
        ctx = serialized.context_span[0]
        q = cell_start(serialized, 2, 1)
        assert bias[q, ctx] == -1.0

    def test_strength_validated(self, grid):
        batch, _ = grid
        with pytest.raises(ValueError):
            tree_distance_bias(batch, strength=-1.0)


class TestTabbie:
    def test_encode_api(self, config, tokenizer, sample_table):
        model = Tabbie(config, tokenizer, np.random.default_rng(0))
        encoding = model.encode(sample_table)
        assert encoding.table_embedding.shape == (config.dim,)
        assert len(encoding.cell_embeddings) == 6

    def test_two_stacks_registered(self, config, tokenizer):
        model = Tabbie(config, tokenizer, np.random.default_rng(0))
        names = dict(model.named_parameters())
        assert any(name.startswith("column_encoder.") for name in names)
        assert any(name.startswith("encoder.") for name in names)

    def test_views_actually_differ(self, config, tokenizer, sample_table):
        """Averaged output must differ from either single view."""
        model = Tabbie(config, tokenizer, np.random.default_rng(0))
        batch, _ = model.batch([sample_table])
        from repro.nn import inference_mode
        with inference_mode():
            combined = model(batch).data
            row_only = model.encoder(model.embed(batch),
                                     mask=horizontal_mask(batch)).data
        assert not np.allclose(combined, row_only)


class TestTuta:
    def test_encode_api(self, config, tokenizer, sample_table):
        model = Tuta(config, tokenizer, np.random.default_rng(0))
        encoding = model.encode(sample_table)
        assert encoding.table_embedding.shape == (config.dim,)

    def test_strength_changes_cell_outputs(self, config, tokenizer,
                                           sample_table):
        # Note: [CLS] sits at the tree root (uniform distance to all keys),
        # so with a single layer its vector is invariant to the bias —
        # softmax is shift-invariant.  Cell tokens see varying distances.
        weak = Tuta(config, tokenizer, np.random.default_rng(0),
                    distance_strength=0.0)
        strong = Tuta(config, tokenizer, np.random.default_rng(0),
                      distance_strength=4.0)
        a = weak.encode(sample_table).cell_embeddings[(0, 0)]
        b = strong.encode(sample_table).cell_embeddings[(0, 0)]
        assert not np.allclose(a, b)

    def test_zero_strength_equals_dense(self, config, tokenizer, sample_table):
        tuta = Tuta(config, tokenizer, np.random.default_rng(0),
                    distance_strength=0.0)
        batch, _ = tuta.batch([sample_table])
        from repro.nn import inference_mode
        with inference_mode():
            biased = tuta(batch).data
            plain = tuta.encoder(tuta.embed(batch),
                                 mask=dense_mask(batch)).data
        np.testing.assert_allclose(biased, plain)

    def test_strength_validated(self, config, tokenizer):
        with pytest.raises(ValueError):
            Tuta(config, tokenizer, np.random.default_rng(0),
                 distance_strength=-0.5)


class TestNumericChannel:
    @pytest.fixture
    def numeric_config(self, tokenizer, kb):
        return EncoderConfig(
            vocab_size=len(tokenizer.vocab), dim=16, num_heads=2,
            num_layers=1, hidden_dim=32, max_position=128,
            num_entities=kb.num_entities, numeric_features=True,
        )

    def test_numeric_features_extracted(self, tokenizer, sample_table,
                                        numeric_config):
        model = TableBert(numeric_config, tokenizer, np.random.default_rng(0))
        batch, serialized = model.batch([sample_table])
        start, end = serialized[0].cell_spans[(0, 2)]  # 25.69
        assert batch.numeric_features[0, start, 0] == 1.0
        assert batch.numeric_features[0, start, 2] == pytest.approx(
            np.log1p(25.69))
        text_start, _ = serialized[0].cell_spans[(0, 0)]  # Australia
        assert batch.numeric_features[0, text_start, 0] == 0.0

    def test_channel_changes_encoding(self, tokenizer, sample_table,
                                      numeric_config, config):
        with_numeric = TableBert(numeric_config, tokenizer,
                                 np.random.default_rng(0))
        encoding = with_numeric.encode(sample_table)
        doubled = sample_table.replace_cell(0, 2, 999999.0)
        changed = with_numeric.encode(doubled)
        moved = np.linalg.norm(
            encoding.cell_embeddings[(0, 2)] - changed.cell_embeddings[(0, 2)])
        assert moved > 0

    def test_projection_only_when_enabled(self, tokenizer, config,
                                          numeric_config):
        plain = TableBert(config, tokenizer, np.random.default_rng(0))
        numeric = TableBert(numeric_config, tokenizer, np.random.default_rng(0))
        assert not hasattr(plain, "numeric_projection")
        assert numeric.num_parameters() > 0
        names = dict(numeric.named_parameters())
        assert "numeric_projection.weight" in names

    def test_magnitude_distinguishable(self, tokenizer, numeric_config):
        """Same-digit-pattern values of different magnitude must separate
        in the numeric channel (the point of the extension)."""
        model = TableBert(numeric_config, tokenizer, np.random.default_rng(0))
        small = Table(["v"], [[1.0]])
        large = Table(["v"], [[1000000.0]])
        a = model.encode(small).cell_embeddings[(0, 0)]
        b = model.encode(large).cell_embeddings[(0, 0)]
        assert np.linalg.norm(a - b) > 1e-6
