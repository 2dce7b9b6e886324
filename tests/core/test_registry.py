"""Tests for the model registry and pretrained bundles."""

import json

import numpy as np
import pytest

from repro.core import (
    build_tokenizer_for_tables,
    create_model,
    load_pretrained,
    save_pretrained,
    text_corpus_from_tables,
)
from repro.corpus import KnowledgeBase, generate_wiki_corpus
from repro.models import EncoderConfig
from repro.nn import CheckpointError


@pytest.fixture(scope="module")
def tables():
    return generate_wiki_corpus(KnowledgeBase(seed=0), 10, seed=0)


@pytest.fixture(scope="module")
def tokenizer(tables):
    return build_tokenizer_for_tables(tables, vocab_size=600)


@pytest.fixture(scope="module")
def config(tokenizer):
    return EncoderConfig(vocab_size=len(tokenizer.vocab), dim=16, num_heads=2,
                         num_layers=1, hidden_dim=32, max_position=128,
                         num_entities=200)


class TestTextCorpus:
    def test_covers_headers_and_cells(self, tables):
        texts = text_corpus_from_tables(tables)
        joined = " ".join(texts)
        assert tables[0].header[0] in joined
        assert tables[0].cell(0, 0).text() in joined


class TestCreateModel:
    def test_every_registered_model_constructible(self, tokenizer, config):
        from repro.models import MODEL_CLASSES
        for name in MODEL_CLASSES:
            model = create_model(name, tokenizer, config=config)
            assert model.model_name == name

    def test_unknown_name_rejected(self, tokenizer, config):
        with pytest.raises(KeyError):
            create_model("gpt-17", tokenizer, config=config)

    def test_vocab_mismatch_rejected(self, tokenizer):
        bad = EncoderConfig(vocab_size=7)
        with pytest.raises(ValueError):
            create_model("bert", tokenizer, config=bad)

    def test_default_config_matches_tokenizer(self, tokenizer):
        model = create_model("bert", tokenizer)
        assert model.config.vocab_size == len(tokenizer.vocab)

    def test_kwargs_forwarded(self, tokenizer, config):
        model = create_model("tabert", tokenizer, config=config, snapshot_rows=5)
        assert model.snapshot_rows == 5

    def test_seed_reproducibility(self, tokenizer, config, tables):
        a = create_model("tapas", tokenizer, config=config, seed=7)
        b = create_model("tapas", tokenizer, config=config, seed=7)
        np.testing.assert_array_equal(
            a.encode(tables[0]).table_embedding,
            b.encode(tables[0]).table_embedding)


class TestBundles:
    @pytest.mark.parametrize("name", ["bert", "tapas", "turl", "mate"])
    def test_roundtrip_identical_encodings(self, name, tokenizer, config,
                                           tables, tmp_path):
        model = create_model(name, tokenizer, config=config, seed=3)
        save_pretrained(model, tmp_path / name)
        loaded = load_pretrained(tmp_path / name)
        np.testing.assert_allclose(
            model.encode(tables[0]).table_embedding,
            loaded.encode(tables[0]).table_embedding)

    def test_kwargs_survive_roundtrip(self, tokenizer, config, tmp_path):
        model = create_model("tabert", tokenizer, config=config,
                             snapshot_rows=4)
        save_pretrained(model, tmp_path / "tabert")
        loaded = load_pretrained(tmp_path / "tabert")
        assert loaded.snapshot_rows == 4

    def test_loaded_model_in_eval_mode(self, tokenizer, config, tmp_path):
        model = create_model("bert", tokenizer, config=config)
        save_pretrained(model, tmp_path / "m")
        assert not load_pretrained(tmp_path / "m").training

    def test_bundle_files_present(self, tokenizer, config, tmp_path):
        model = create_model("bert", tokenizer, config=config)
        directory = save_pretrained(model, tmp_path / "m")
        assert (directory / "weights.npz").exists()
        assert (directory / "config.json").exists()
        assert (directory / "tokenizer.json").exists()


class TestInitMetadata:
    def test_create_model_stamps_metadata(self, tokenizer, config):
        model = create_model("tabert", tokenizer, config=config, seed=9,
                            snapshot_rows=5)
        assert model.init_metadata.seed == 9
        assert model.init_metadata.kwargs == {"snapshot_rows": 5}

    def test_unstamped_module_has_empty_metadata(self, tokenizer, config):
        from repro.models import MODEL_CLASSES

        model = MODEL_CLASSES["bert"](config, tokenizer,
                                      np.random.default_rng(0))
        assert model.init_metadata.seed == 0
        assert model.init_metadata.kwargs == {}

    def test_setter_rejects_wrong_type(self, tokenizer, config):
        model = create_model("bert", tokenizer, config=config)
        with pytest.raises(TypeError):
            model.init_metadata = {"seed": 1}

    def test_metadata_dict_round_trip(self):
        from repro.nn import InitMetadata

        metadata = InitMetadata(seed=4, kwargs={"snapshot_rows": 2})
        assert InitMetadata.from_dict(metadata.to_dict()) == metadata


class TestBundleFormatVersion:
    def test_bundle_stamped_with_format_version(self, tokenizer, config,
                                                tmp_path):
        import json

        from repro.core import BUNDLE_FORMAT_VERSION

        model = create_model("bert", tokenizer, config=config)
        directory = save_pretrained(model, tmp_path / "m")
        metadata = json.loads((directory / "config.json").read_text())
        assert metadata["format_version"] == BUNDLE_FORMAT_VERSION

    def test_unknown_format_version_rejected(self, tokenizer, config,
                                             tmp_path):
        import json

        model = create_model("bert", tokenizer, config=config)
        directory = save_pretrained(model, tmp_path / "m")
        path = directory / "config.json"
        metadata = json.loads(path.read_text())
        metadata["format_version"] = 999
        path.write_text(json.dumps(metadata))
        with pytest.raises(ValueError, match="format_version"):
            load_pretrained(directory)

    def test_legacy_bundle_without_version_loads(self, tokenizer, config,
                                                 tmp_path):
        import json

        model = create_model("tabert", tokenizer, config=config,
                             snapshot_rows=4)
        directory = save_pretrained(model, tmp_path / "m")
        path = directory / "config.json"
        metadata = json.loads(path.read_text())
        del metadata["format_version"]
        path.write_text(json.dumps(metadata))
        loaded = load_pretrained(directory)
        assert loaded.snapshot_rows == 4
        assert loaded.init_metadata.kwargs == {"snapshot_rows": 4}


def _edit_json(name, mutate):
    """Rewrite bundle file ``name`` with its JSON passed through ``mutate``."""
    def apply(directory):
        path = directory / name
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    return apply


_MALFORMED_BUNDLES = {
    "config-json-not-an-object": _edit_json("config.json",
                                            lambda meta: [meta]),
    "unknown-config-field": _edit_json("config.json", lambda meta: {
        **meta, "config": {**meta["config"], "bogus": 1}}),
    "config-not-an-object": _edit_json("config.json",
                                       lambda meta: {**meta, "config": 5}),
    "kwargs-not-an-object": _edit_json("config.json", lambda meta: {
        **meta, "kwargs": ["snapshot_rows"]}),
    "tokenizer-json-not-an-object": _edit_json("tokenizer.json",
                                               lambda payload: [payload]),
    "tokens-not-a-list": _edit_json("tokenizer.json", lambda payload: {
        **payload, "tokens": 7}),
    "specials-out-of-order": _edit_json("tokenizer.json", lambda payload: {
        **payload, "tokens": [payload["tokens"][1], payload["tokens"][0],
                              *payload["tokens"][2:]]}),
    "max-word-chars-not-an-integer": _edit_json(
        "tokenizer.json",
        lambda payload: {**payload, "max_word_chars": "64"}),
    "tokens-too-short-for-vocab-size": _edit_json(
        "tokenizer.json",
        lambda payload: {**payload, "tokens": payload["tokens"][:-5]}),
}


class TestMalformedBundles:
    """A bundle whose JSON parses but has the wrong shape is corrupt:
    ``CheckpointError``, never a raw ``TypeError`` or ``AttributeError``."""

    @pytest.mark.parametrize("mutate", _MALFORMED_BUNDLES.values(),
                             ids=_MALFORMED_BUNDLES)
    def test_load_raises_checkpoint_error(self, mutate, tokenizer, config,
                                          tmp_path):
        model = create_model("bert", tokenizer, config=config)
        directory = save_pretrained(model, tmp_path / "m")
        mutate(directory)
        with pytest.raises(CheckpointError, match="bundle"):
            load_pretrained(directory)
