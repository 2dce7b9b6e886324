"""Table retrieval with a bi-encoder (§2.1, "Table Retrieval").

Queries and tables are embedded by the *same* encoder (queries ride through
as context-only sequences over an empty table) and trained with in-batch
contrastive loss; ranking is by cosine similarity, evaluated with Hits@k
and MRR.  A BM25-flavoured lexical baseline is included for the E10
comparison.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .common import Prediction, predict_in_batches
from ..corpus import RetrievalExample
from ..eval import hits_at_k, mean_reciprocal_rank
from ..models import TableEncoder
from ..nn import Module, Tensor, in_batch_contrastive_loss, weight_epoch
from ..tables import Table
from ..text import word_tokenize

__all__ = ["BiEncoderRetriever", "LexicalRetriever"]

_EMPTY_TABLE = Table([], [])


class BiEncoderRetriever(Module):
    """Shared-encoder dense retriever over a fixed table corpus."""

    task_name = "retrieval"

    def __init__(self, encoder: TableEncoder,
                 corpus: list[Table] | None = None) -> None:
        super().__init__()
        self.encoder = encoder
        self._tables_by_id: dict[str, Table] = {}
        self._index_memo: tuple | None = None
        if corpus is not None:
            self.bind_corpus(corpus)

    def bind_corpus(self, tables: list[Table]) -> None:
        """Register the tables positives are looked up from during training."""
        self._tables_by_id = {t.table_id: t for t in tables}

    # ------------------------------------------------------------------
    def _query_cls(self, queries: list[str]) -> Tensor:
        batch, _ = self.encoder.batch([_EMPTY_TABLE] * len(queries), queries)
        return self.encoder(batch)[:, 0]

    def _table_cls(self, tables: list[Table]) -> Tensor:
        batch, _ = self.encoder.batch(tables)
        return self.encoder(batch)[:, 0]

    def loss(self, examples: list[RetrievalExample]) -> Tensor:
        """In-batch contrastive loss over aligned (query, table) pairs.

        Requires a bound corpus (``bind_corpus``) to resolve positives.
        """
        if not self._tables_by_id:
            raise ValueError("bind_corpus() must be called before training")
        queries = [e.query for e in examples]
        tables = [self._tables_by_id[e.positive_table_id] for e in examples]
        return in_batch_contrastive_loss(self._query_cls(queries),
                                         self._table_cls(tables))

    # ------------------------------------------------------------------
    def index(self, tables: list[Table]) -> tuple[np.ndarray, list[str]]:
        """Embed a corpus; returns (normalized matrix, aligned table ids).

        Runs through the cache-aware inference path, so re-indexing an
        unchanged corpus is free once an encoding cache is attached.
        """
        hidden, _ = self.encoder.infer_hidden(tables)
        vectors = hidden.data[:, 0]
        norms = np.linalg.norm(vectors, axis=-1, keepdims=True) + 1e-9
        return vectors / norms, [t.table_id for t in tables]

    def _corpus_index(self) -> tuple[np.ndarray, list[str]]:
        """:meth:`index` of the bound corpus, re-embedded only when needed.

        The index is stamped with the weight epoch and, by identity, the
        encoder's config, its encoding cache (which decides how the
        forward runs) and the bound-corpus dict; it is rebuilt when any
        of them moved.
        """
        epoch = weight_epoch()
        stamp = (self.encoder.config, self.encoder.encoding_cache,
                 self._tables_by_id)
        memo = self._index_memo
        if (memo is None or memo[0] != epoch
                or any(a is not b for a, b in zip(memo[1], stamp))):
            memo = (epoch, stamp,
                    self.index(list(self._tables_by_id.values())))
            self._index_memo = memo
        return memo[2]

    def _query_vectors(self, queries: list[str]) -> np.ndarray:
        hidden, _ = self.encoder.infer_hidden(
            [_EMPTY_TABLE] * len(queries), queries)
        vectors = hidden.data[:, 0]
        return vectors / (np.linalg.norm(vectors, axis=-1, keepdims=True)
                          + 1e-9)

    def rank(self, query: str, index: tuple[np.ndarray, list[str]]) -> list[str]:
        """Corpus table ids sorted by descending cosine similarity."""
        matrix, ids = index
        scores = matrix @ self._query_vectors([query])[0]
        return [ids[i] for i in np.argsort(-scores)]

    # ------------------------------------------------------------------
    # Inference (TaskPredictor protocol)
    # ------------------------------------------------------------------
    def predict(self, examples: list[RetrievalExample], *,
                batch_size: int = 16) -> list[Prediction]:
        """Best-matching bound-corpus table per query.

        Requires :meth:`bind_corpus`; ``label`` is the top table id and
        ``extras["ranking"]`` carries the top-5 ids in order.
        """
        if not self._tables_by_id:
            raise ValueError("bind_corpus() must be called before predict")
        matrix, ids = self._corpus_index()

        def rank_batch(chunk: list[RetrievalExample]) -> list[Prediction]:
            vectors = self._query_vectors([e.query for e in chunk])
            scores = vectors @ matrix.T
            predictions = []
            for row in scores:
                order = np.argsort(-row)
                predictions.append(Prediction(
                    label=ids[int(order[0])], score=float(row[order[0]]),
                    extras={"ranking": [ids[int(i)] for i in order[:5]]}))
            return predictions

        return predict_in_batches(self, examples, batch_size, rank_batch)

    def evaluate(self, examples: list[RetrievalExample],
                 tables: list[Table]) -> dict[str, float]:
        index = self.index(tables)
        rankings = [self.rank(e.query, index) for e in examples]
        golds = [e.positive_table_id for e in examples]
        return {
            "hits@1": hits_at_k(rankings, golds, k=1),
            "hits@3": hits_at_k(rankings, golds, k=3),
            "mrr": mean_reciprocal_rank(rankings, golds),
        }


class LexicalRetriever:
    """BM25-style sparse baseline over table text (header+cells+context)."""

    def __init__(self, k1: float = 1.5, b: float = 0.75) -> None:
        self.k1 = k1
        self.b = b
        self._documents: list[Counter] = []
        self._ids: list[str] = []
        self._document_frequency: Counter = Counter()
        self._average_length = 0.0

    @staticmethod
    def _table_tokens(table: Table) -> list[str]:
        parts = [table.context.text(), " ".join(table.header)]
        parts += [cell.text() for _, _, cell in table.iter_cells()]
        return word_tokenize(" ".join(parts).lower())

    def index(self, tables: list[Table]) -> None:
        self._documents = [Counter(self._table_tokens(t)) for t in tables]
        self._ids = [t.table_id for t in tables]
        self._document_frequency = Counter()
        for doc in self._documents:
            self._document_frequency.update(doc.keys())
        lengths = [sum(doc.values()) for doc in self._documents]
        self._average_length = float(np.mean(lengths)) if lengths else 0.0

    def rank(self, query: str) -> list[str]:
        if not self._documents:
            raise ValueError("index() must be called before rank()")
        n_docs = len(self._documents)
        query_tokens = word_tokenize(query.lower())
        scores = np.zeros(n_docs)
        for i, doc in enumerate(self._documents):
            length = sum(doc.values()) or 1
            for token in query_tokens:
                tf = doc.get(token, 0)
                if not tf:
                    continue
                df = self._document_frequency[token]
                idf = math.log(1 + (n_docs - df + 0.5) / (df + 0.5))
                denom = tf + self.k1 * (1 - self.b + self.b * length / self._average_length)
                scores[i] += idf * tf * (self.k1 + 1) / denom
        return [self._ids[i] for i in np.argsort(-scores)]

    def evaluate(self, examples: list[RetrievalExample],
                 tables: list[Table]) -> dict[str, float]:
        self.index(tables)
        rankings = [self.rank(e.query) for e in examples]
        golds = [e.positive_table_id for e in examples]
        return {
            "hits@1": hits_at_k(rankings, golds, k=1),
            "hits@3": hits_at_k(rankings, golds, k=3),
            "mrr": mean_reciprocal_rank(rankings, golds),
        }
