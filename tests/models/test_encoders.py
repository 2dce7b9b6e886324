"""Tests shared across the encoder zoo + model-specific behaviours."""

import numpy as np
import pytest

from repro.models import (
    MODEL_CLASSES,
    Mate,
    TaBert,
    TableBert,
    Tapas,
    Turl,
)
from repro.models.config import EncoderConfig
from repro.tables import Table

ENCODER_NAMES = ["bert", "tapas", "tabert", "turl", "mate", "tabbie", "tuta"]


def build(name, config, tokenizer):
    rng = np.random.default_rng(0)
    return MODEL_CLASSES[name](config, tokenizer, rng)


class TestEncodeApi:
    @pytest.mark.parametrize("name", ENCODER_NAMES)
    def test_encoding_granularities(self, name, config, tokenizer, sample_table):
        model = build(name, config, tokenizer)
        encoding = model.encode(sample_table)
        assert encoding.table_embedding.shape == (config.dim,)
        assert encoding.token_embeddings.shape[1] == config.dim
        assert set(encoding.row_embeddings)  # at least one row
        assert set(encoding.column_embeddings)
        assert encoding.dim == config.dim

    @pytest.mark.parametrize("name", ENCODER_NAMES)
    def test_cell_embeddings_cover_cells(self, name, config, tokenizer, sample_table):
        model = build(name, config, tokenizer)
        encoding = model.encode(sample_table)
        if name == "tabert":
            # Content snapshot may drop rows, but keeps the columns.
            assert encoding.cell_embeddings
        else:
            expected = {(r, c) for r in range(2) for c in range(3)}
            assert set(encoding.cell_embeddings) == expected

    @pytest.mark.parametrize("name", ENCODER_NAMES)
    def test_encode_is_deterministic(self, name, config, tokenizer, sample_table):
        model = build(name, config, tokenizer)
        a = model.encode(sample_table).table_embedding
        b = model.encode(sample_table).table_embedding
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ENCODER_NAMES)
    def test_encode_restores_training_mode(self, name, config, tokenizer, sample_table):
        model = build(name, config, tokenizer)
        model.train()
        model.encode(sample_table)
        assert model.training

    def test_describe_reports_structure_flags(self, config, tokenizer):
        assert not build("bert", config, tokenizer).describe()["row_embeddings"]
        assert build("tapas", config, tokenizer).describe()["row_embeddings"]

    def test_context_override_changes_encoding(self, config, tokenizer, sample_table):
        model = build("bert", config, tokenizer)
        base = model.encode(sample_table, context="population by country")
        other = model.encode(sample_table, context="capital cities of the world")
        assert not np.allclose(base.table_embedding, other.table_embedding)


class TestStructuralSensitivity:
    def test_tapas_distinguishes_row_permutations_less_than_bert(
            self, config, tokenizer, sample_table):
        """Row/column embeddings change how permutations reflect in CLS;
        both models produce finite encodings either way."""
        for name in ("bert", "tapas"):
            model = build(name, config, tokenizer)
            permuted = sample_table.with_rows_permuted([1, 0])
            a = model.encode(sample_table).table_embedding
            b = model.encode(permuted).table_embedding
            assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))

    def test_parameter_counts_ordered(self, config, tokenizer):
        bert = build("bert", config, tokenizer).num_parameters()
        tapas = build("tapas", config, tokenizer).num_parameters()
        turl = build("turl", config, tokenizer).num_parameters()
        assert bert < tapas < turl  # extra channels add parameters


class TestTapas:
    def test_qa_scores_shapes(self, config, tokenizer, sample_table):
        model = build("tapas", config, tokenizer)
        batch, _ = model.batch([sample_table, sample_table],
                               ["what is the capital of france"] * 2)
        token_scores, agg_logits = model.question_answer_scores(batch)
        assert token_scores.shape == (2, batch.seq_len)
        assert agg_logits.shape == (2, 4)


class TestTaBert:
    def test_content_snapshot_limits_rows(self, config, tokenizer):
        table = Table(["a", "b"], [[f"val {i}", f"w {i}"] for i in range(10)],
                      table_id="big")
        model = TaBert(config, tokenizer, np.random.default_rng(0), snapshot_rows=3)
        encoding = model.encode(table, context="val 7")
        rows = {r for r, _ in encoding.cell_embeddings}
        assert len(rows) <= 3

    def test_snapshot_keeps_relevant_row(self, config, tokenizer):
        table = Table(["a"], [[f"value {i}"] for i in range(10)], table_id="big")
        model = TaBert(config, tokenizer, np.random.default_rng(0), snapshot_rows=1)
        prepared = model.prepare_table(table, "value 7")
        assert prepared.cell(0, 0).value == "value 7"

    def test_no_context_prefix_snapshot(self, config, tokenizer):
        table = Table(["a"], [[f"value {i}"] for i in range(10)], table_id="big")
        model = TaBert(config, tokenizer, np.random.default_rng(0), snapshot_rows=2)
        prepared = model.prepare_table(table, "")
        assert prepared.num_rows == 2
        assert prepared.cell(0, 0).value == "value 0"

    def test_snapshot_rows_validated(self, config, tokenizer):
        with pytest.raises(ValueError):
            TaBert(config, tokenizer, np.random.default_rng(0), snapshot_rows=0)


class TestTurl:
    def test_requires_entity_vocabulary(self, tokenizer):
        config = EncoderConfig(vocab_size=len(tokenizer.vocab), dim=16,
                               num_heads=2, num_entities=0)
        with pytest.raises(ValueError):
            Turl(config, tokenizer, np.random.default_rng(0))

    def test_pretraining_head_shapes(self, config, tokenizer, wiki_tables):
        model = build("turl", config, tokenizer)
        batch, _ = model.batch(wiki_tables[:2])
        hidden = model(batch)
        mlm, mer = model.mlm_head(hidden), model.mer_head(hidden)
        assert mlm.shape == (2, batch.seq_len, config.vocab_size)
        assert mer.shape == (2, batch.seq_len, config.num_entities + 1)

    def test_entity_channel_changes_encoding(self, config, tokenizer, wiki_tables):
        model = build("turl", config, tokenizer)
        table = wiki_tables[0]
        stripped = Table(table.header,
                         [[cell.text() for cell in row] for row in table.rows],
                         context=table.context, table_id=table.table_id)
        with_entities = model.encode(table).table_embedding
        without = model.encode(stripped).table_embedding
        assert not np.allclose(with_entities, without)


class TestMate:
    def test_row_head_fraction_validated(self, config, tokenizer):
        with pytest.raises(ValueError):
            Mate(config, tokenizer, np.random.default_rng(0), row_head_fraction=1.5)

    def test_mask_has_per_head_structure(self, config, tokenizer, sample_table):
        model = build("mate", config, tokenizer)
        batch, _ = model.batch([sample_table])
        mask = model.attention_mask(batch)
        assert mask.shape[1] == config.num_heads
        assert (mask[:, 0] != mask[:, -1]).any()
