"""Shared fixtures for serving tests: a tiny corpus and encoder."""

import numpy as np
import pytest

from repro.corpus import (ColumnTypeExample, ImputationExample,
                          KnowledgeBase, NLIExample, QAExample,
                          RetrievalExample, Text2SqlExample,
                          generate_wiki_corpus)
from repro.models import EncoderConfig, TableBert
from repro.serve import InferenceEngine, build_predictor
from repro.serve.requests import SERVED_TASKS
from repro.text import train_tokenizer


@pytest.fixture(scope="session")
def serve_tables():
    return generate_wiki_corpus(KnowledgeBase(seed=0), 8, seed=0)


@pytest.fixture(scope="session")
def serve_tokenizer(serve_tables):
    texts = []
    for table in serve_tables:
        texts.append(table.context.text())
        texts.append(" ".join(table.header))
        texts.extend(cell.text() for _, _, cell in table.iter_cells())
    return train_tokenizer(texts, vocab_size=600)


@pytest.fixture(scope="session")
def serve_config(serve_tokenizer):
    return EncoderConfig(
        vocab_size=len(serve_tokenizer.vocab), dim=16, num_heads=2,
        num_layers=1, hidden_dim=32, max_position=160, num_entities=64,
    )


@pytest.fixture
def encoder(serve_config, serve_tokenizer):
    return TableBert(serve_config, serve_tokenizer, np.random.default_rng(0))


def _served_examples(table):
    """One example per served task over ``table``."""
    return [
        ("qa", QAExample(table, "which entry is the highest", None, ())),
        ("nli", NLIExample(table, "the table lists entries", 0)),
        ("imputation", ImputationExample(table, 0, 0, "")),
        ("coltype", ColumnTypeExample(table, 0, "")),
        ("retrieval", RetrievalExample(table.context.title, "")),
        ("text2sql", Text2SqlExample(table, "how many entries are there",
                                     None)),
    ]


@pytest.fixture
def six_task_engine(encoder, serve_tables):
    """An engine serving every task of ``SERVED_TASKS`` over one encoder."""
    rng = np.random.default_rng(0)
    return InferenceEngine({task: build_predictor(task, encoder,
                                                  serve_tables, rng)
                            for task in SERVED_TASKS})


@pytest.fixture
def six_task_traffic(serve_tables):
    """Six requests, one per served task, on each of three tables."""
    return [submission for table in serve_tables[:3]
            for submission in _served_examples(table)]
