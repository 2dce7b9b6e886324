"""Content-addressed LRU cache for table-encoder outputs.

TAPAS/TaBERT-style deployments answer many queries against the *same*
table, so the transformer forward — by far the dominant cost — is pure
waste after the first request.  :class:`EncodingCache` memoizes the
per-table hidden states keyed by a content hash of the exact serialized
input features together with a fingerprint of the model's identity and
weights:

- hashing the *feature arrays* (token ids, positions, structural ids,
  numeric channel) rather than the raw table means context strings,
  serializer choice and per-task input mutations (e.g. the imputer's
  ``[MASK]`` span) all participate in the key for free;
- keying on the *model fingerprint* (name + config + every parameter)
  means fine-tuning or loading different weights invalidates every
  stale entry.  The digest is memoized on the model and stamped with
  the weight epoch (:func:`repro.nn.weight_epoch`), which every
  parameter write moves, so a request under unchanged weights hashes
  nothing.

Hit/miss/eviction counts report through the
:class:`~repro.runtime.MetricsRegistry` under ``serve.cache.*``.

The cache is thread-safe: one reentrant lock guards every entry map and
counter, so the threaded HTTP front-end (``ThreadingHTTPServer`` handler
threads sharing one in-process engine) can hammer it concurrently
without corrupting the LRU order or drifting the hit/miss counters.
The lock is coarse — it is held across the miss forward in
:meth:`EncodingCache.hidden_for` — which is the right trade here:
replicated serving gives each forked worker a private cache (no
contention), and the single-process paths have exactly one dispatching
thread doing forwards anyway.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from ..nn import Module, weight_epoch
from ..runtime import get_registry
from ..serialize import SerializedTable, TableFeatures, pad_batch
from ..tables import Table

__all__ = ["EncodingCache", "feature_fingerprint", "model_fingerprint",
           "table_fingerprint"]

#: Namespace of the cache's hit/miss/eviction counters.
_METRICS_PREFIX = "serve.cache"

_FEATURE_FIELDS = ("token_ids", "positions", "row_ids", "column_ids",
                   "roles", "entity_ids", "numeric_features")


def table_fingerprint(table: Table, context: str | None = None) -> str:
    """Content hash of one table plus its serialization context string.

    Covers everything serialization can see: header, every cell's text
    and entity link, the table's own context fields, and the per-request
    context (e.g. a QA question).  ``table_id`` is deliberately ignored —
    two structurally identical tables serialize identically.
    """
    digest = hashlib.sha256()
    digest.update(("" if context is None else context).encode())
    digest.update(b"\x1e")
    for part in (table.context.title, table.context.section,
                 table.context.caption):
        digest.update(part.encode())
        digest.update(b"\x1f")
    digest.update("\x1f".join(table.header).encode())
    for row in table.rows:
        digest.update(b"\x1e")
        for cell in row:
            digest.update(cell.text().encode())
            digest.update(str(cell.entity_id).encode())
            digest.update(b"\x1f")
    return digest.hexdigest()


def _copy_features(features: TableFeatures) -> TableFeatures:
    """Fresh-array copy, so feature hooks can mutate without corrupting
    the pristine memo entry."""
    return replace(features, **{name: getattr(features, name).copy()
                                for name in _FEATURE_FIELDS})


def feature_fingerprint(features: TableFeatures) -> str:
    """Content hash of one example's exact per-token input arrays."""
    digest = hashlib.sha256()
    for name in _FEATURE_FIELDS:
        array = np.ascontiguousarray(getattr(features, name))
        digest.update(name.encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def model_fingerprint(model: Module) -> str:
    """Hash of a model's identity: name, config, and every parameter.

    Any weight update (fine-tuning, loading a different bundle) changes
    the fingerprint, so cache entries written under the old weights can
    never be served again.  The digest is kept on the model, stamped
    with the weight epoch and the config object, and recomputed only
    when either moved: every parameter write and every parameter or
    submodule registration moves the epoch, and a replaced (frozen)
    config is a new object.  The epoch is read before hashing, so a
    write racing the hash makes the next call hash again.
    """
    epoch = weight_epoch()
    config = getattr(model, "config", None)
    memo = getattr(model, "_fingerprint_memo", None)
    if memo is not None and memo[0] == epoch and memo[1] is config:
        return memo[2]
    digest = hashlib.sha256()
    digest.update(getattr(model, "model_name", type(model).__name__).encode())
    if config is not None and hasattr(config, "to_dict"):
        digest.update(json.dumps(config.to_dict(), sort_keys=True).encode())
    for name, param in model.named_parameters():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(param.data).tobytes())
    fingerprint = digest.hexdigest()
    model._fingerprint_memo = (epoch, config, fingerprint)
    return fingerprint


class EncodingCache:  # thread-shared
    """Size-bounded LRU of per-table hidden states.

    Parameters
    ----------
    max_entries:
        Entry budget; the least recently used entry is evicted past it.
    """

    _encoder_tokens = itertools.count()

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple[str, str], np.ndarray]" = OrderedDict()  # guarded-by: _lock
        self._feature_entries: "OrderedDict[tuple[int, str], tuple]" = \
            OrderedDict()  # guarded-by: _lock
        self._lock = threading.RLock()
        self.hits = 0       # guarded-by: _lock
        self.misses = 0     # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Total payload bytes currently held."""
        with self._lock:
            return sum(array.nbytes for array in self._entries.values())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._feature_entries.clear()

    def stats(self) -> dict[str, int]:
        """A consistent snapshot of size and hit-rate counters."""
        with self._lock:
            return {"entries": len(self._entries),
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}

    # ------------------------------------------------------------------
    def _count(self, what: str, amount: int = 1) -> None:
        if amount:
            get_registry().counter(f"{_METRICS_PREFIX}.{what}").inc(amount)

    def lookup(self, key: tuple[str, str]) -> np.ndarray | None:
        """Fetch an entry and mark it most recently used (no counters)."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def store(self, key: tuple[str, str], value: np.ndarray) -> None:
        """Insert an entry, evicting the LRU tail past ``max_entries``."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._count("evictions")

    # ------------------------------------------------------------------
    def features_for(self, encoder: Module, tables: list[Table],
                     contexts: list[str | None]
                     ) -> tuple[list[SerializedTable], list[TableFeatures]]:
        """Serialized tables + input features, memoized by table content.

        Serialization re-tokenizes the whole table on every request, and
        on a repeated-table workload that overhead rivals the encoder
        forward itself — so the cache memoizes this stage too, keyed by
        an encoder identity token plus :func:`table_fingerprint`.  The
        stored features stay pristine; callers receive array copies so
        per-task feature hooks (e.g. the imputer's ``[MASK]``) can
        mutate them freely.  Weights don't enter this key: features
        depend only on the encoder's tokenizer and serializer, which the
        per-instance token pins.
        """
        with self._lock:
            token = getattr(encoder, "_encoding_cache_token", None)
            if token is None:
                token = next(EncodingCache._encoder_tokens)
                encoder._encoding_cache_token = token
            serialized, features = [], []
            for table, context in zip(tables, contexts):
                key = (token, table_fingerprint(table, context))
                entry = self._feature_entries.get(key)
                if entry is None:
                    one_serialized = encoder.serialize(table, context)
                    entry = (one_serialized,
                             encoder.features(one_serialized, table=table))
                    self._feature_entries[key] = entry
                    while len(self._feature_entries) > self.max_entries:
                        self._feature_entries.popitem(last=False)
                else:
                    self._feature_entries.move_to_end(key)
                serialized.append(entry[0])
                features.append(_copy_features(entry[1]))
            return serialized, features

    def hidden_for(self, encoder: Module, features: list[TableFeatures]
                   ) -> list[np.ndarray]:
        """Per-example hidden states ``(seq_i, dim)``, cached where possible.

        Misses are deduplicated within the call — a batch repeating one
        table costs one forward — and each distinct miss runs through
        ``encoder.forward`` as its own batch of one, so the stored hidden
        states are *canonical*: bitwise independent of batch composition
        (padded-batch forwards are not padding-invariant; see
        ``repro.serve.engine``).  Repeats of an in-flight key count as
        hits: they skip encoder work exactly like a cache hit does.
        """
        with self._lock:
            fingerprint = model_fingerprint(encoder)
            keys = [(fingerprint, feature_fingerprint(f)) for f in features]
            out: list[np.ndarray | None] = [None] * len(features)
            pending: "OrderedDict[tuple[str, str], list[int]]" = OrderedDict()
            hits = misses = 0
            for i, key in enumerate(keys):
                cached = self.lookup(key)
                if cached is not None:
                    out[i] = cached
                    hits += 1
                elif key in pending:
                    pending[key].append(i)
                    hits += 1
                else:
                    pending[key] = [i]
                    misses += 1
            for key, indices in pending.items():
                # Canonical per-example forward: each miss is encoded
                # under its own padding only, so the stored bytes are
                # independent of which other requests shared the wave
                # (the determinism contract in ``repro.serve.engine``).
                first = features[indices[0]]
                batch = pad_batch([first],
                                  pad_id=encoder.tokenizer.vocab.pad_id)
                with encoder.inference():
                    data = encoder.forward(batch).data
                hidden = data[0, : len(first)].copy()
                self.store(key, hidden)
                for i in indices:
                    out[i] = hidden
            self.hits += hits
            self.misses += misses
            self._count("hits", hits)
            self._count("misses", misses)
            return out  # type: ignore[return-value]
