"""Downstream task harnesses (Fig. 1, pipeline (2): fine-tune & consume)."""

from .coltype import ColumnTypePredictor, build_label_set
from .common import (
    FinetuneConfig,
    Prediction,
    TaskPredictor,
    finetune,
    pooled_span,
    predict_in_batches,
)
from .imputation import (
    EntityImputer,
    ValueImputer,
    build_value_vocabulary,
    build_value_vocabulary_from_tables,
)
from .linking import EntityLinker, LinkingExample, build_linking_dataset
from .nli import NliClassifier
from .qa import CellSelectionQA
from .retrieval import BiEncoderRetriever, LexicalRetriever
from .text2sql import SKETCH_AGGREGATES, SketchParser

__all__ = [
    "FinetuneConfig", "finetune", "pooled_span",
    "Prediction", "TaskPredictor", "predict_in_batches",
    "ValueImputer", "EntityImputer", "build_value_vocabulary",
    "build_value_vocabulary_from_tables",
    "CellSelectionQA",
    "NliClassifier",
    "BiEncoderRetriever", "LexicalRetriever",
    "ColumnTypePredictor", "build_label_set",
    "SketchParser", "SKETCH_AGGREGATES",
    "EntityLinker", "LinkingExample", "build_linking_dataset",
]
