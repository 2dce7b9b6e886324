"""The unified TaskPredictor surface across all six task classes."""

import numpy as np
import pytest

from repro.corpus import (
    build_coltype_dataset,
    build_imputation_dataset,
    build_nli_dataset,
    build_qa_dataset,
    build_retrieval_dataset,
    build_text2sql_dataset,
)
from repro.tasks import (
    BiEncoderRetriever,
    CellSelectionQA,
    ColumnTypePredictor,
    NliClassifier,
    Prediction,
    SketchParser,
    TaskPredictor,
    ValueImputer,
    build_label_set,
    build_value_vocabulary_from_tables,
    predict_in_batches,
)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def _predictor_and_examples(task, bert, tapas, tables, rng):
    data_rng = np.random.default_rng(1)
    if task == "qa":
        return (CellSelectionQA(tapas, rng),
                build_qa_dataset(tables, data_rng, per_table=1)[:4])
    if task == "nli":
        return (NliClassifier(bert, rng),
                build_nli_dataset(tables, data_rng, per_table=1)[:4])
    if task == "imputation":
        vocabulary = build_value_vocabulary_from_tables(tables)
        return (ValueImputer(bert, vocabulary, rng),
                build_imputation_dataset(tables, data_rng, per_table=1)[:4])
    if task == "coltype":
        examples = build_coltype_dataset(tables)[:4]
        return (ColumnTypePredictor(bert, build_label_set(examples), rng),
                examples)
    if task == "retrieval":
        return (BiEncoderRetriever(bert, corpus=tables),
                build_retrieval_dataset(tables, data_rng, per_table=1)[:4])
    if task == "text2sql":
        return (SketchParser(tapas, rng),
                build_text2sql_dataset(tables, data_rng, per_table=1)[:4])
    raise AssertionError(task)


ALL_TASKS = ("qa", "nli", "imputation", "coltype", "retrieval", "text2sql")


class TestProtocolConformance:
    @pytest.mark.parametrize("task", ALL_TASKS)
    def test_predict_returns_predictions(self, task, bert, tapas,
                                         wiki_tables, rng):
        predictor, examples = _predictor_and_examples(
            task, bert, tapas, wiki_tables, rng)
        assert isinstance(predictor, TaskPredictor)
        assert predictor.task_name == task
        predictions = predictor.predict(examples, batch_size=2)
        assert len(predictions) == len(examples)
        assert all(isinstance(p, Prediction) for p in predictions)
        assert all(isinstance(p.score, float) for p in predictions)

    @pytest.mark.parametrize("task", ALL_TASKS)
    def test_batch_size_does_not_change_labels(self, task, bert, tapas,
                                               wiki_tables, rng):
        predictor, examples = _predictor_and_examples(
            task, bert, tapas, wiki_tables, rng)
        one_by_one = predictor.predict(examples, batch_size=1)
        all_at_once = predictor.predict(examples, batch_size=len(examples))
        assert [p.label for p in one_by_one] == [p.label for p in all_at_once]

    @pytest.mark.parametrize("task", ALL_TASKS)
    def test_evaluate_still_works(self, task, bert, tapas, wiki_tables, rng):
        predictor, examples = _predictor_and_examples(
            task, bert, tapas, wiki_tables, rng)
        if task == "retrieval":
            result = predictor.evaluate(examples, wiki_tables)
        else:
            result = predictor.evaluate(examples)
        assert result and all(isinstance(v, float) for v in result.values())


class TestPredictInBatches:
    def test_empty_examples(self, bert, rng):
        clf = NliClassifier(bert, rng)
        assert clf.predict([]) == []

    def test_rejects_bad_batch_size(self, bert, rng, wiki_tables):
        clf = NliClassifier(bert, rng)
        _, examples = _predictor_and_examples("nli", bert, None,
                                              wiki_tables, rng)
        with pytest.raises(ValueError):
            clf.predict(examples, batch_size=0)

    def test_restores_training_mode(self, bert, rng, wiki_tables):
        clf = NliClassifier(bert, rng)
        _, examples = _predictor_and_examples("nli", bert, None,
                                              wiki_tables, rng)
        clf.train()
        clf.predict(examples[:2])
        assert clf.training

    def test_chunking_calls(self, bert, rng):
        calls = []

        def fake_batch(chunk):
            calls.append(len(chunk))
            return [Prediction(label=None)] * len(chunk)

        clf = NliClassifier(bert, rng)
        out = predict_in_batches(clf, list(range(5)), 2, fake_batch)
        assert calls == [2, 2, 1]
        assert len(out) == 5
