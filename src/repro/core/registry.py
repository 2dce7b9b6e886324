"""Model registry and pretrained-bundle IO — the Fig. 2a loading API.

``load_pretrained(path)`` mirrors the tutorial's
``transformers.load_pretrained(path/to/model)`` line: a bundle directory
holds the weights, the model/config metadata and the tokenizer, and loading
reconstructs a ready-to-use model.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..models import MODEL_CLASSES, EncoderConfig
from ..nn import (
    CheckpointError,
    InitMetadata,
    Module,
    load_checkpoint,
    save_checkpoint,
)
from ..tables import Table
from ..text import WordPieceTokenizer, train_tokenizer

__all__ = [
    "create_model",
    "save_pretrained",
    "load_pretrained",
    "text_corpus_from_tables",
    "build_tokenizer_for_tables",
    "BUNDLE_FORMAT_VERSION",
]

# Version stamp written into every bundle's config.json.  Bump when the
# bundle layout changes incompatibly; ``load_pretrained`` rejects versions
# it does not understand.  Bundles written before versioning are treated
# as version 1 (same layout).
BUNDLE_FORMAT_VERSION = 1
_SUPPORTED_BUNDLE_VERSIONS = frozenset({1})


def text_corpus_from_tables(tables: list[Table]) -> list[str]:
    """All text a table corpus exposes: contexts, headers, cell values."""
    texts: list[str] = []
    for table in tables:
        texts.append(table.context.text())
        texts.append(" ".join(table.header))
        for _, _, cell in table.iter_cells():
            texts.append(cell.text())
    return texts


# Glyphs and template words the serializers emit; seeded into every trained
# vocabulary so serialized sequences never degrade to [UNK] on structure.
_SERIALIZER_SEED_TEXTS = [
    "| ; - row column one two three four five six seven eight is",
] * 2


def build_tokenizer_for_tables(tables: list[Table], vocab_size: int = 1000,
                               extra_texts: list[str] | None = None
                               ) -> WordPieceTokenizer:
    """Train a WordPiece tokenizer on a table corpus (+optional texts).

    Serializer glyphs (``|``, ``;``, template ordinals) are always included
    so every linearization stays in-vocabulary.
    """
    texts = text_corpus_from_tables(tables) + list(_SERIALIZER_SEED_TEXTS)
    if extra_texts:
        texts.extend(extra_texts)
    return train_tokenizer(texts, vocab_size=vocab_size)


def create_model(name: str, tokenizer: WordPieceTokenizer,
                 config: EncoderConfig | None = None, seed: int = 0,
                 **kwargs) -> Module:
    """Instantiate a model from the zoo by name.

    ``kwargs`` pass through to the model constructor (e.g. TaBERT's
    ``snapshot_rows``) and are recorded for bundle reconstruction.
    """
    if name not in MODEL_CLASSES:
        raise KeyError(f"unknown model {name!r}; have {sorted(MODEL_CLASSES)}")
    if config is None:
        config = EncoderConfig(vocab_size=len(tokenizer.vocab))
    if config.vocab_size != len(tokenizer.vocab):
        raise ValueError(
            f"config.vocab_size={config.vocab_size} does not match the "
            f"tokenizer ({len(tokenizer.vocab)} tokens)")
    rng = np.random.default_rng(seed)
    model = MODEL_CLASSES[name](config, tokenizer, rng, **kwargs)
    model.init_metadata = InitMetadata(seed=seed, kwargs=dict(kwargs))
    return model


def save_pretrained(model: Module, directory: str | Path) -> Path:
    """Write a loadable bundle: weights.npz + config.json + tokenizer.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    init = model.init_metadata
    metadata = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "model_name": model.model_name,
        "config": model.config.to_dict(),
        "kwargs": init.kwargs,
        "seed": init.seed,
    }
    save_checkpoint(model, directory / "weights.npz")
    (directory / "config.json").write_text(json.dumps(metadata, indent=2))
    model.tokenizer.save(directory / "tokenizer.json")
    return directory


def load_pretrained(directory: str | Path) -> Module:
    """Reconstruct a model bundle written by :func:`save_pretrained`.

    Corrupt bundles — unparseable, incomplete or wrongly shaped
    ``config.json`` or ``tokenizer.json``, a truncated ``weights.npz``, a
    tokenizer or weight set that does not fit the model — raise
    :class:`~repro.nn.CheckpointError` naming the problem instead of
    surfacing raw JSON/zipfile/key/type errors.  An unsupported
    ``format_version`` raises :class:`ValueError`.
    """
    directory = Path(directory)
    config_path = directory / "config.json"
    if not config_path.is_file():
        raise CheckpointError(
            f"{directory} is not a model bundle (no config.json)")
    try:
        metadata = json.loads(config_path.read_text())
    except json.JSONDecodeError as error:
        raise CheckpointError(
            f"bundle {directory} has a corrupt config.json: {error}"
        ) from error
    if not isinstance(metadata, dict):
        raise CheckpointError(
            f"bundle {directory} has a corrupt config.json: not a JSON "
            f"object")
    version = metadata.get("format_version", 1)
    if version not in _SUPPORTED_BUNDLE_VERSIONS:
        supported = sorted(_SUPPORTED_BUNDLE_VERSIONS)
        raise ValueError(
            f"bundle {directory} has format_version {version!r}; this build "
            f"supports {supported}. Re-export the bundle with a matching "
            f"version of repro.")
    try:
        tokenizer = WordPieceTokenizer.load(directory / "tokenizer.json")
        config = EncoderConfig.from_dict(metadata["config"])
        model = create_model(metadata["model_name"], tokenizer, config=config,
                             seed=metadata.get("seed", 0),
                             **metadata.get("kwargs", {}))
    except (KeyError, TypeError, ValueError, FileNotFoundError) as error:
        raise CheckpointError(
            f"bundle {directory} is incomplete or corrupt: {error}"
        ) from error
    load_checkpoint(model, directory / "weights.npz")
    model.eval()
    return model
