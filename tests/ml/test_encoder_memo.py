"""The frozen encoder's feature memo and lazy table are invisible.

``SimBertClassifier.encode`` keeps one process-wide memo of pooled
features per frozen table and text.  It must hand out exactly what a
fresh computation returns, never let a caller write into a shared
array, stay under its cap, and add nothing to a model's pickle — the
bytes the object store and the result cache fingerprint.  The table
itself is drawn on first read, so a model whose texts all hit the memo
never draws it; whether it was drawn must not show in the pickle.
"""

import copy
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
#: sha256 of ``pickle.dumps(SimBertClassifier("lazy", MODELS, seed=11))``,
#: recorded while ``__init__`` still drew the table.
FRESH_PICKLE_SHA256 = (
    "978a5e29b2a509f2b5d93b8f2301428e898ef819c3d18d452bbbc20dc7fa331e"
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


def drawn(model):
    return "embeddings" in vars(model)


def test_a_model_trained_on_memoised_texts_draws_no_table():
    forget_features()
    pairs = [(text, index % 2) for index, text in enumerate(TEXTS)]
    first = SimBertClassifier("a", MODELS, seed=10)
    assert not drawn(first)
    first.fit(pairs, epochs=2)
    assert drawn(first)
    second = SimBertClassifier("b", MODELS, seed=10)
    second.fit(pairs, epochs=2)
    assert not drawn(second)
    assert np.array_equal(second.weights, first.weights)
    assert second.bias == first.bias


def test_the_first_read_is_the_eager_draw_and_read_only():
    model = SimBertClassifier("m", MODELS, embedding_dim=8, vocab_size=64, seed=12)
    table = model.embeddings
    eager = np.random.RandomState(12).normal(0.0, 1.0, size=(64, 8))
    assert table.dtype == eager.dtype and table.tobytes() == eager.tobytes()
    assert model.embeddings is table
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    with pytest.raises(AttributeError):
        model.embeddings = eager


def test_a_model_pickles_the_same_whether_or_not_its_table_was_read():
    never_read = SimBertClassifier("lazy", MODELS, seed=11)
    read = SimBertClassifier("lazy", MODELS, seed=11)
    read.embeddings
    payload = pickle.dumps(never_read)
    assert hashlib.sha256(payload).hexdigest() == FRESH_PICKLE_SHA256
    assert pickle.dumps(read) == payload
    assert pickle.dumps(never_read, protocol=4) == payload


def test_copied_and_unpickled_models_keep_the_table_and_state():
    model = SimBertClassifier("m", MODELS, seed=13)
    model.fit([("smoke over the ridge", 1), ("sunny day", 0)], epochs=1)
    assert pickle.dumps(copy.deepcopy(model)) == pickle.dumps(model)
    for twin in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert vars(twin).keys() == model.__getstate__().keys()
        assert twin.weights.tobytes() == model.weights.tobytes()
        assert twin.embeddings.tobytes() == model.embeddings.tobytes()
        for text in TEXTS:
            assert np.array_equal(twin.encode(text), model.encode(text))
            assert twin.predict_proba(text) == model.predict_proba(text)


def test_an_empty_text_encodes_to_zeros_without_a_draw():
    forget_features()
    model = SimBertClassifier("m", MODELS, embedding_dim=16, seed=14)
    for text in ("", "!!!"):
        features = model.encode(text)
        assert features.tobytes() == np.zeros(16).tobytes()
        assert not features.flags.writeable
    assert not drawn(model)
