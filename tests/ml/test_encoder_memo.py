"""The frozen encoder's feature memo is invisible.

``SimBertClassifier.encode`` keeps one process-wide memo of pooled
features per frozen table and text.  It must hand out exactly what a
fresh computation returns, never let a caller write into a shared
array, stay under its cap, and add nothing to a model's pickle — the
bytes the object store and the result cache fingerprint.
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.config import default_config
from repro.datasets.wildfire import generate_wildfire_tweets
from repro.ml import SimBertClassifier
from repro.ml.models import bert
from repro.tasks.wef.common import WEF_COSTS, make_framing_model, training_pairs

MODELS = default_config().models
TEXTS = ["Smoke over the ridge", "", "!!!", "evacuate now, smoke smoke", "ridge"]

#: sha256 of ``pickle.dumps`` of framing model 0 trained on 40 tweets,
#: recorded before the memo existed.
TRAINED_PICKLE_SHA256 = (
    "abfeff1025f648b0ff7c7d42e84daad9242a112fdbd5c94d2653eb7f40691cc8"
)


def forget_features():
    for memo in bert._FEATURES.values():
        memo.clear()


def fresh_features(model, text):
    token_ids = model.tokenizer.tokenize(text)
    if not token_ids:
        return np.zeros(model.embeddings.shape[1])
    return model.embeddings[token_ids].mean(axis=0)


def test_two_models_with_one_seed_read_fresh_features():
    forget_features()
    first = SimBertClassifier("a", MODELS, seed=5)
    second = SimBertClassifier("b", MODELS, seed=5)
    for model in (first, second, first):
        for text in TEXTS:
            features = model.encode(text)
            expected = fresh_features(model, text)
            assert features.dtype == expected.dtype
            assert np.array_equal(features, expected)


def test_features_and_table_are_read_only():
    model = SimBertClassifier("m", MODELS, seed=6)
    for text in TEXTS:
        with pytest.raises(ValueError):
            model.encode(text)[0] = 1.0
    with pytest.raises(ValueError):
        model.embeddings[0, 0] = 1.0


def test_a_trained_model_pickles_as_before_the_memo():
    tweets = generate_wildfire_tweets(40)
    model = make_framing_model(0)
    model.fit(
        training_pairs(tweets, 0),
        epochs=WEF_COSTS.epochs,
        learning_rate=WEF_COSTS.learning_rate,
    )
    digest = hashlib.sha256(pickle.dumps(model)).hexdigest()
    assert digest == TRAINED_PICKLE_SHA256


def test_a_copied_model_encodes_without_the_memo():
    model = SimBertClassifier("m", MODELS, seed=7)
    copy = pickle.loads(pickle.dumps(model))
    for text in TEXTS:
        assert np.array_equal(copy.encode(text), model.encode(text))


def test_the_memo_never_exceeds_its_cap(monkeypatch):
    monkeypatch.setattr(bert, "_FEATURES_CAP", 8)
    forget_features()
    models = [SimBertClassifier("m", MODELS, seed=seed) for seed in (8, 9)]
    for index in range(30):
        for model in models:
            text = f"tweet number {index} about smoke"
            assert np.array_equal(model.encode(text), fresh_features(model, text))
            assert sum(map(len, bert._FEATURES.values())) <= 8
