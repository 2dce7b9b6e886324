"""Streaming corpora: deterministic shard-seeded table generation.

TaBERT and TAPAS pretrain over tens of millions of tables — corpora that
can never live in memory as a ``list[Table]``.  This module makes every
corpus generator *streamable*: a corpus is a (finite or infinite)
sequence of fixed-size **shards**, and shard ``s`` of a corpus seeded
with ``corpus_seed`` is generated on demand from the spawned child

    numpy.random.SeedSequence(corpus_seed, spawn_key=(s,))

— the same independent-stream scheme ``run_imputation_pipeline`` uses
for its per-split generators.  The spawn key makes shard generation a
pure function of ``(corpus_seed, shard_index)``:

- **order-free**: shards can be generated in any order, repeatedly, on
  any process, and always contain the same tables (this is what lets a
  bounded window evict a shard and regenerate it bit-identically on the
  next lookup);
- **prefix-stable**: the first ``k`` full shards of a corpus do not
  depend on the corpus size, so growing a corpus never perturbs
  training runs over its prefix;
- **collision-free**: distinct ``(corpus_seed, shard_index)`` pairs
  yield statistically independent streams by the ``SeedSequence``
  spawning contract.

Consumers hold a :class:`ShardWindow` — a bounded LRU cache of
generated shards — so random access over a finite stream costs at most
``window_shards * shard_tables`` tables of memory no matter the corpus
size.  :class:`MaterializedCorpus` wraps an existing ``list[Table]`` in
the same protocol so legacy callers keep working, and
:meth:`StreamingCorpus.materialize` goes the other way for differential
testing: a streamed consumer and a materialized consumer of the same
stream must behave *bit-identically* (the contract
``tests/corpus/test_stream_differential.py`` enforces at checkpoint-byte
level).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Iterable, Iterator

import numpy as np

from .gittables import GitTablesConfig, generate_git_table
from .infobox import generate_infobox
from .knowledge import KnowledgeBase
from .splits import stable_hash
from .wikitables import WikiTablesConfig, generate_wiki_table
from ..tables import Table

__all__ = [
    "EmptyCorpusError",
    "StreamingCorpus", "MaterializedCorpus",
    "WikiTableStream", "GitTableStream", "InfoboxStream",
    "ShardWindow",
    "shard_seed", "table_fingerprint", "shard_fingerprint",
    "as_stream", "open_stream", "STREAM_KINDS",
]

#: Default tables per shard for the generator adapters and the CLI.
DEFAULT_SHARD_TABLES = 64


class EmptyCorpusError(ValueError):
    """A corpus or stream with zero tables was offered for training.

    Subclasses :class:`ValueError` so callers that guarded against the
    historical bare ``ValueError`` keep working; the CLI maps it to an
    operator error (exit code 2).
    """


def shard_seed(corpus_seed: int, shard_index: int) -> np.random.SeedSequence:
    """The spawned :class:`~numpy.random.SeedSequence` for one shard.

    ``SeedSequence(seed).spawn(n)[i]`` equals
    ``SeedSequence(seed, spawn_key=(i,))``; constructing the child
    directly makes shard ``i`` reachable without enumerating (or even
    knowing the number of) its predecessors — the property an infinite
    stream and a mid-stream resume both rely on.
    """
    if shard_index < 0:
        raise ValueError(f"shard_index must be non-negative, got {shard_index}")
    return np.random.SeedSequence(corpus_seed, spawn_key=(shard_index,))


# ----------------------------------------------------------------------
# Fingerprints: stable content hashes for drift detection
# ----------------------------------------------------------------------
def table_fingerprint(table: Table) -> str:
    """A 64-bit stable content hash of one table, as 16 hex digits.

    Covers identity, header, context and every cell (text and entity
    id), so any generator drift — reordered draws, changed pools, new
    columns — changes the fingerprint.  Uses the same FNV-1a hash as
    the corpus splits: stable across processes, platforms and runs.
    """
    parts = [table.table_id, "\x1d".join(table.header),
             table.context.title, table.context.section,
             table.context.caption]
    for _, _, cell in table.iter_cells():
        parts.append(cell.text())
        parts.append("" if cell.entity_id is None else str(cell.entity_id))
    return f"{stable_hash(chr(0x1e).join(parts)):016x}"


def shard_fingerprint(tables: Iterable[Table]) -> str:
    """Order-sensitive fingerprint of a whole shard (16 hex digits)."""
    joined = "\x1f".join(table_fingerprint(t) for t in tables)
    return f"{stable_hash(joined):016x}"


# ----------------------------------------------------------------------
# The protocol
# ----------------------------------------------------------------------
class StreamingCorpus:
    """A corpus as a deterministic sequence of fixed-size table shards.

    Parameters
    ----------
    shard_tables:
        Tables per shard.  Every shard is full except (for finite
        streams) possibly the last.
    size:
        Total number of tables, or ``None`` for an infinite stream.

    Subclasses implement :meth:`generate_shard` — a *pure* function of
    the shard index (typically via :func:`shard_seed`) — and
    :meth:`spec`, the JSON-able identity of the stream used for
    checkpoint compatibility checks and fingerprinting.
    """

    def __init__(self, shard_tables: int, size: int | None) -> None:
        if shard_tables < 1:
            raise ValueError("shard_tables must be positive")
        if size is not None and size < 0:
            raise ValueError("size must be non-negative (None = infinite)")
        self.shard_tables = int(shard_tables)
        self.size = None if size is None else int(size)
        self._fingerprint: str | None = None

    # -- identity -------------------------------------------------------
    def spec(self) -> dict:
        """JSON-able description that fully determines the stream."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Stable 16-hex-digit hash of :meth:`spec` (cached)."""
        if self._fingerprint is None:
            encoded = json.dumps(self.spec(), sort_keys=True)
            self._fingerprint = f"{stable_hash(encoded):016x}"
        return self._fingerprint

    # -- geometry -------------------------------------------------------
    @property
    def is_infinite(self) -> bool:
        return self.size is None

    @property
    def num_shards(self) -> int | None:
        """Shard count, or ``None`` for an infinite stream."""
        if self.size is None:
            return None
        return -(-self.size // self.shard_tables)  # ceil division

    def shard_length(self, index: int) -> int:
        """How many tables shard ``index`` holds (last may be short)."""
        if index < 0:
            raise IndexError(f"shard index {index} out of range")
        if self.size is None:
            return self.shard_tables
        start = index * self.shard_tables
        if start >= self.size:
            raise IndexError(
                f"shard index {index} out of range for {self.num_shards} "
                f"shard(s)")
        return min(self.shard_tables, self.size - start)

    # -- generation -----------------------------------------------------
    def generate_shard(self, index: int) -> list[Table]:
        """Generate shard ``index`` — pure, order-free, repeatable."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[list[Table]]:
        """Yield shards in order; never terminates for infinite streams."""
        index = 0
        total = self.num_shards
        while total is None or index < total:
            yield self.generate_shard(index)
            index += 1

    def iter_tables(self) -> Iterator[Table]:
        """Flat table iterator over :meth:`__iter__`."""
        for shard in self:
            yield from shard

    def head_tables(self, count: int) -> list[Table]:
        """The first ``count`` tables (fewer if the stream is shorter).

        Bounded-memory: generates only the shards it needs.  Used to
        seed tokenizers without materializing the corpus.
        """
        head: list[Table] = []
        if count <= 0:
            return head
        for shard in self:
            head.extend(shard)
            if len(head) >= count:
                break
        return head[:count]

    def materialize(self) -> list[Table]:
        """Every table as one in-memory list (finite streams only).

        This is the differential-testing bridge: training over the
        stream must be bit-identical to training over this list.
        """
        if self.size is None:
            raise ValueError("cannot materialize an infinite stream")
        return list(self.iter_tables())


# ----------------------------------------------------------------------
# Generator adapters
# ----------------------------------------------------------------------
class WikiTableStream(StreamingCorpus):
    """Streamed WikiTables-style corpus (entity-focused tables)."""

    kind = "wiki"

    def __init__(self, kb: KnowledgeBase, size: int | None, seed: int = 0,
                 shard_tables: int = DEFAULT_SHARD_TABLES,
                 config: WikiTablesConfig | None = None) -> None:
        super().__init__(shard_tables, size)
        self.kb = kb
        self.seed = int(seed)
        self.config = config

    def spec(self) -> dict:
        config = self.config
        return {
            "kind": self.kind, "seed": self.seed, "size": self.size,
            "shard_tables": self.shard_tables, "kb_seed": self.kb.seed,
            "config": None if config is None else {
                "min_rows": config.min_rows, "max_rows": config.max_rows,
                "min_attributes": config.min_attributes,
                "max_attributes": config.max_attributes,
            },
        }

    def generate_shard(self, index: int) -> list[Table]:
        count = self.shard_length(index)
        rng = np.random.default_rng(shard_seed(self.seed, index))
        base = index * self.shard_tables
        return [generate_wiki_table(self.kb, rng, config=self.config,
                                    table_id=f"wiki-{base + offset}")
                for offset in range(count)]


class GitTableStream(StreamingCorpus):
    """Streamed GitTables-style corpus (heterogeneous CSV tables)."""

    kind = "git"

    def __init__(self, size: int | None, seed: int = 0,
                 shard_tables: int = DEFAULT_SHARD_TABLES,
                 config: GitTablesConfig | None = None) -> None:
        super().__init__(shard_tables, size)
        self.seed = int(seed)
        self.config = config

    def spec(self) -> dict:
        config = self.config
        return {
            "kind": self.kind, "seed": self.seed, "size": self.size,
            "shard_tables": self.shard_tables,
            "config": None if config is None else {
                "min_rows": config.min_rows, "max_rows": config.max_rows,
                "missing_cell_probability": config.missing_cell_probability,
                "abbreviated_header_probability":
                    config.abbreviated_header_probability,
                "headerless_probability": config.headerless_probability,
            },
        }

    def generate_shard(self, index: int) -> list[Table]:
        count = self.shard_length(index)
        rng = np.random.default_rng(shard_seed(self.seed, index))
        base = index * self.shard_tables
        return [generate_git_table(rng, config=self.config,
                                   table_id=f"git-{base + offset}")
                for offset in range(count)]


class InfoboxStream(StreamingCorpus):
    """Streamed infobox corpus (vertical entity cards)."""

    kind = "infobox"

    def __init__(self, kb: KnowledgeBase, size: int | None, seed: int = 0,
                 shard_tables: int = DEFAULT_SHARD_TABLES) -> None:
        super().__init__(shard_tables, size)
        self.kb = kb
        self.seed = int(seed)

    def spec(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "size": self.size,
                "shard_tables": self.shard_tables, "kb_seed": self.kb.seed}

    def generate_shard(self, index: int) -> list[Table]:
        count = self.shard_length(index)
        rng = np.random.default_rng(shard_seed(self.seed, index))
        base = index * self.shard_tables
        return [generate_infobox(self.kb, rng,
                                 table_id=f"infobox-{base + offset}")
                for offset in range(count)]


class MaterializedCorpus(StreamingCorpus):
    """An in-memory ``list[Table]`` wearing the streaming protocol.

    The bridge for legacy callers: anything that consumes a
    :class:`StreamingCorpus` also accepts an existing list this way, and
    the shard decomposition is a pure view — :meth:`generate_shard`
    slices, never copies or regenerates.
    """

    kind = "materialized"

    def __init__(self, tables: list[Table],
                 shard_tables: int = DEFAULT_SHARD_TABLES) -> None:
        super().__init__(shard_tables, len(tables))
        self.tables = list(tables)

    def spec(self) -> dict:
        # Content-addressed: two materialized corpora are "the same
        # stream" exactly when they hold the same tables in the same
        # order and shard decomposition.
        content = "\x1f".join(table_fingerprint(t) for t in self.tables)
        return {"kind": self.kind, "size": self.size,
                "shard_tables": self.shard_tables,
                "content": f"{stable_hash(content):016x}"}

    def generate_shard(self, index: int) -> list[Table]:
        count = self.shard_length(index)
        start = index * self.shard_tables
        return self.tables[start:start + count]

    def materialize(self) -> list[Table]:
        return list(self.tables)


# ----------------------------------------------------------------------
# Bounded random access
# ----------------------------------------------------------------------
class ShardWindow:
    """A bounded LRU cache of generated shards over one stream.

    Serves table lookups by *global index* while keeping at most
    ``max_shards`` shards in memory; anything evicted is regenerated on
    demand (cheap and bit-identical, by the shard-seeding contract).
    The window is pure cache: its capacity, hit pattern and eviction
    order can never change *which* table a global index resolves to.
    """

    def __init__(self, stream: StreamingCorpus, max_shards: int = 8) -> None:
        if max_shards < 1:
            raise ValueError("max_shards must be positive")
        self.stream = stream
        self.max_shards = int(max_shards)
        self._shards: OrderedDict[int, list[Table]] = OrderedDict()
        self.hits = 0
        self.generated = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._shards)

    def shard(self, index: int) -> list[Table]:
        """The tables of shard ``index`` (cached or regenerated)."""
        cached = self._shards.get(index)
        if cached is not None:
            self.hits += 1
            self._shards.move_to_end(index)
            return cached
        tables = self.stream.generate_shard(index)
        self.generated += 1
        self._shards[index] = tables
        evicted = len(self._shards) > self.max_shards
        if evicted:
            self._shards.popitem(last=False)
            self.evicted += 1
        self._observe(evicted)
        return tables

    def table(self, global_index: int) -> Table:
        """The table at ``global_index`` of the stream."""
        size = self.stream.size
        if global_index < 0 or (size is not None and global_index >= size):
            raise IndexError(
                f"table index {global_index} out of range for corpus of "
                f"size {size}")
        shard_tables = self.stream.shard_tables
        shard = self.shard(global_index // shard_tables)
        return shard[global_index % shard_tables]

    def tables(self, global_indices: Iterable[int]) -> list[Table]:
        return [self.table(int(i)) for i in global_indices]

    def _observe(self, evicted: bool) -> None:
        from ..runtime import get_registry, telemetry_enabled

        if not telemetry_enabled():
            return
        registry = get_registry()
        registry.counter("corpus.stream.shards_generated").inc()
        if evicted:
            registry.counter("corpus.stream.shards_evicted").inc()


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
STREAM_KINDS = ("wiki", "git", "infobox")


def as_stream(corpus: "list[Table] | StreamingCorpus",
              shard_tables: int = DEFAULT_SHARD_TABLES) -> StreamingCorpus:
    """Coerce a ``list[Table]`` (or a stream) into the stream protocol."""
    if isinstance(corpus, StreamingCorpus):
        return corpus
    return MaterializedCorpus(list(corpus), shard_tables=shard_tables)


def open_stream(kind: str, *, size: int | None, seed: int = 0,
                shard_tables: int = DEFAULT_SHARD_TABLES,
                kb: KnowledgeBase | None = None) -> StreamingCorpus:
    """Build a generator-backed stream by kind name (CLI entry point).

    ``size=None`` opens an infinite stream.  ``kb`` defaults to a
    :class:`KnowledgeBase` seeded with ``seed`` for the entity-backed
    kinds, mirroring the historical ``repro corpus`` behaviour.
    """
    if kind == "git":
        return GitTableStream(size, seed=seed, shard_tables=shard_tables)
    if kind == "wiki":
        return WikiTableStream(kb or KnowledgeBase(seed=seed), size,
                               seed=seed, shard_tables=shard_tables)
    if kind == "infobox":
        return InfoboxStream(kb or KnowledgeBase(seed=seed), size,
                             seed=seed, shard_tables=shard_tables)
    raise KeyError(f"unknown corpus kind {kind!r}; have {STREAM_KINDS}")
