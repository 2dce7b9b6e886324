"""ServeConfig(compile=True) must serve bit-identical predictions."""

import numpy as np
import pytest

from repro.corpus import NLIExample
from repro.serve import InferenceEngine, ServeConfig
from repro.tasks import NliClassifier


@pytest.fixture
def make_nli(make_model):
    def build():
        return NliClassifier(make_model("bert"), np.random.default_rng(0))
    return build


def run_engine(nli, tables, compile_flag):
    engine = InferenceEngine({"nli": nli}, ServeConfig(compile=compile_flag))
    submissions = [("nli", NLIExample(tables[i % 6], f"statement {i}", 0))
                   for i in range(12)]
    responses = engine.process(submissions)
    return engine, [(r.prediction.label, r.prediction.score)
                    for r in responses]


class TestServeCompile:
    def test_compiled_predictions_equal_eager(self, make_nli, wiki_tables):
        _, eager = run_engine(make_nli(), wiki_tables, False)
        engine, compiled = run_engine(make_nli(), wiki_tables, True)
        assert compiled == eager
        # The compiled path was actually exercised: the encoder holds
        # recorded programs for the batch signatures it served.
        encoder = engine.predictors["nli"].encoder
        assert encoder._compiled_inference is not None
        assert len(encoder._compiled_inference.cache) >= 1

    def test_compile_off_leaves_encoder_eager(self, make_nli, wiki_tables):
        engine, _ = run_engine(make_nli(), wiki_tables, False)
        assert engine.predictors["nli"].encoder._compiled_inference is None
