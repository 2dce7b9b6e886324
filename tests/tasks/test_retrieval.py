"""Tests for table retrieval (dense bi-encoder + lexical baseline)."""

import numpy as np
import pytest

from repro.corpus import build_retrieval_dataset
from repro.nn import Adam
from repro.serve import EncodingCache
from repro.tasks import BiEncoderRetriever, FinetuneConfig, LexicalRetriever, finetune


@pytest.fixture
def examples(wiki_tables):
    return build_retrieval_dataset(wiki_tables, np.random.default_rng(0))


class TestBiEncoder:
    def test_requires_bound_corpus(self, bert, examples):
        retriever = BiEncoderRetriever(bert)
        with pytest.raises(ValueError):
            retriever.loss(examples[:4])

    def test_index_shapes(self, bert, wiki_tables):
        retriever = BiEncoderRetriever(bert, corpus=wiki_tables)
        matrix, ids = retriever.index(wiki_tables)
        assert matrix.shape == (len(wiki_tables), bert.config.dim)
        assert ids == [t.table_id for t in wiki_tables]
        np.testing.assert_allclose(np.linalg.norm(matrix, axis=1),
                                   np.ones(len(wiki_tables)), atol=1e-6)

    def test_rank_returns_permutation(self, bert, wiki_tables, examples):
        retriever = BiEncoderRetriever(bert, corpus=wiki_tables)
        index = retriever.index(wiki_tables)
        ranking = retriever.rank(examples[0].query, index)
        assert sorted(ranking) == sorted(t.table_id for t in wiki_tables)

    def test_evaluate_keys(self, bert, wiki_tables, examples):
        retriever = BiEncoderRetriever(bert, corpus=wiki_tables)
        result = retriever.evaluate(examples[:8], wiki_tables)
        assert set(result) == {"hits@1", "hits@3", "mrr"}

    def test_contrastive_training_improves_ranking(self, bert, wiki_tables, examples):
        retriever = BiEncoderRetriever(bert, corpus=wiki_tables)
        before = retriever.evaluate(examples, wiki_tables)["mrr"]
        finetune(retriever, examples,
                 FinetuneConfig(epochs=8, batch_size=8, learning_rate=3e-3))
        after = retriever.evaluate(examples, wiki_tables)["mrr"]
        assert after > before


class TestCorpusIndexMemo:
    def _counting(self, retriever):
        calls = {"n": 0}
        index = retriever.index

        def counting(tables):
            calls["n"] += 1
            return index(tables)

        retriever.index = counting
        return calls

    def _adam_step(self, encoder):
        param = next(iter(encoder.parameters()))
        param.grad = np.ones_like(param.data)
        Adam([param], lr=1e-2).step()

    def test_repeated_requests_index_once(self, bert, wiki_tables, examples):
        retriever = BiEncoderRetriever(bert, corpus=wiki_tables)
        calls = self._counting(retriever)
        for example in examples[:5]:
            retriever.predict([example], batch_size=1)
        assert calls["n"] == 1

    def test_reindexes_after_rebinding_and_weight_writes(self, bert,
                                                         wiki_tables,
                                                         examples):
        retriever = BiEncoderRetriever(bert, corpus=wiki_tables)
        calls = self._counting(retriever)
        retriever.predict(examples[:1])
        retriever.bind_corpus(wiki_tables[:6])
        retriever.predict(examples[:1])
        assert calls["n"] == 2
        self._adam_step(bert)
        retriever.predict(examples[:1])
        assert calls["n"] == 3

    @pytest.mark.parametrize("cache", [None, EncodingCache()],
                             ids=["uncached", "cached"])
    def test_predictions_equal_an_unmemoized_retriever(self, bert,
                                                       wiki_tables,
                                                       examples, cache):
        bert.set_encoding_cache(cache)
        memoized = BiEncoderRetriever(bert, corpus=wiki_tables)
        fresh = BiEncoderRetriever(bert, corpus=wiki_tables)
        for i, example in enumerate(examples[:6]):
            if i == 3:
                self._adam_step(bert)
            fresh._index_memo = None
            got = memoized.predict([example], batch_size=1)[0]
            want = fresh.predict([example], batch_size=1)[0]
            assert (got.label, got.score, got.extras) == \
                (want.label, want.score, want.extras)


class TestLexicalBaseline:
    def test_rank_before_index_rejected(self):
        with pytest.raises(ValueError):
            LexicalRetriever().rank("anything")

    def test_exact_title_match_ranks_first(self, wiki_tables):
        retriever = LexicalRetriever()
        retriever.index(wiki_tables)
        target = wiki_tables[0]
        query = target.context.title + " " + target.cell(0, 0).text()
        ranking = retriever.rank(query)
        assert target.table_id in ranking[:3]

    def test_evaluate_strong_on_generated_queries(self, wiki_tables, examples):
        retriever = LexicalRetriever()
        result = retriever.evaluate(examples, wiki_tables)
        # Queries are built from table content, so BM25 should do well.
        assert result["mrr"] > 0.3

    def test_untrained_dense_weaker_than_lexical(self, bert, wiki_tables, examples):
        dense = BiEncoderRetriever(bert, corpus=wiki_tables)
        lexical = LexicalRetriever()
        dense_mrr = dense.evaluate(examples, wiki_tables)["mrr"]
        lexical_mrr = lexical.evaluate(examples, wiki_tables)["mrr"]
        assert lexical_mrr >= dense_mrr
