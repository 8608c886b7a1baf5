"""Seeded synthetic datasets standing in for the paper's corpora.

See DESIGN.md section 2 for each substitution's rationale.
"""

from repro.datasets.amazon import (
    PRODUCT_SCHEMA,
    PURCHASE_RELATION,
    Product,
    build_kge_model,
    catalog_table,
    generate_catalog,
    user_ids,
)
from repro.datasets.fsqa import FsqaParagraph, QAExample, generate_fsqa
from repro.datasets.maccrobat import (
    EVENT_TRIGGER_TYPES,
    CaseReport,
    generate_maccrobat,
)
from repro.datasets.wildfire import (
    FRAMINGS,
    LabeledTweet,
    generate_wildfire_tweets,
    train_test_split,
)

__all__ = [
    "PRODUCT_SCHEMA",
    "PURCHASE_RELATION",
    "Product",
    "build_kge_model",
    "catalog_table",
    "generate_catalog",
    "user_ids",
    "FsqaParagraph",
    "QAExample",
    "generate_fsqa",
    "EVENT_TRIGGER_TYPES",
    "CaseReport",
    "generate_maccrobat",
    "FRAMINGS",
    "LabeledTweet",
    "generate_wildfire_tweets",
    "train_test_split",
]
