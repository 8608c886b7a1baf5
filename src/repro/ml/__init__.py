"""ML substrate: tokenizer, models, metrics.

The three model families of the paper's tasks — BERT classifiers
(WEF), a BART QA generator (GOTTA), and a TransE knowledge-graph model
(KGE) — implemented as small numpy models that really compute, while
reporting full-scale byte sizes and FLOP costs for the simulation (see
DESIGN.md section 2).
"""

from repro.ml.dataloader import DataLoader, TextDataset
from repro.ml.metrics import (
    accuracy,
    exact_match,
    f1_score,
    precision,
    recall,
)
from repro.ml.models.bart import MASK_TOKEN, SimBartGenerator
from repro.ml.models.bert import SimBertClassifier
from repro.ml.models.kge import TransEModel
from repro.ml.tokenizer import HashingTokenizer

__all__ = [
    "DataLoader",
    "TextDataset",
    "accuracy",
    "exact_match",
    "f1_score",
    "precision",
    "recall",
    "MASK_TOKEN",
    "SimBartGenerator",
    "SimBertClassifier",
    "TransEModel",
    "HashingTokenizer",
]
