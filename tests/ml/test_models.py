"""Unit tests for the ML substrate (tokenizer, models, metrics)."""

import numpy as np
import pytest

from repro.config import default_config
from repro.errors import MLError, NotFittedError
from repro.ml import (
    DataLoader,
    HashingTokenizer,
    SimBartGenerator,
    SimBertClassifier,
    TextDataset,
    TransEModel,
    accuracy,
    exact_match,
    f1_score,
    precision,
    recall,
    tokenizer,
)

MODELS = default_config().models


# -- tokenizer ----------------------------------------------------------------


def test_tokenizer_deterministic():
    tok = HashingTokenizer()
    assert tok.tokenize("Hello, World!") == tok.tokenize("hello world")


def test_tokenizer_vocab_bounds():
    tok = HashingTokenizer(vocab_size=128)
    ids = tok.tokenize("a quick brown fox jumps over lazy dogs")
    assert ids
    assert all(0 <= i < 128 for i in ids)


def test_tokenizer_empty_text():
    assert HashingTokenizer().tokenize("") == []
    assert HashingTokenizer().num_tokens("...") == 0


def test_token_counts_are_the_word_counts_under_a_bounded_memo(monkeypatch):
    """``num_tokens`` memoises one count per text for the process; a
    count is the length of the text's word stream at any vocabulary."""
    monkeypatch.setattr(tokenizer, "_COUNTS", {})
    monkeypatch.setattr(tokenizer, "_COUNTS_CAP", 8)
    small, large = HashingTokenizer(vocab_size=2), HashingTokenizer()
    texts = [f"Tweet {i}: smoke, fire & ash!" * (i % 3) for i in range(30)]
    for text in texts + texts[::-1]:
        for tok in (small, large, small):
            assert tok.num_tokens(text) == len(tok.words(text)) == len(tok.tokenize(text))
            assert len(tokenizer._COUNTS) <= 8


def test_tokenizer_rejects_tiny_vocab():
    with pytest.raises(ValueError):
        HashingTokenizer(vocab_size=1)


# -- data loader -----------------------------------------------------------------


def test_dataloader_batches():
    loader = DataLoader(TextDataset(list(range(10))), batch_size=4)
    batches = list(loader)
    assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    assert len(loader) == 3


def test_text_dataset_indexes_like_its_examples():
    dataset = TextDataset(["a", "b", "c"])
    assert (len(dataset), dataset[1], dataset[-1]) == (3, "b", "c")


def test_dataloader_rejects_zero_batch():
    with pytest.raises(ValueError):
        DataLoader(TextDataset([1]), batch_size=0)


# -- SimBERT ------------------------------------------------------------------------


def separable_examples(n=60):
    positive = [(f"wildfire climate warming blaze {i}", 1) for i in range(n // 2)]
    negative = [(f"recipe concert puppy vacation {i}", 0) for i in range(n // 2)]
    return positive + negative


def test_bert_unfitted_predict_raises():
    model = SimBertClassifier("m", MODELS)
    with pytest.raises(NotFittedError):
        model.predict_proba("text")


def test_bert_learns_separable_data():
    model = SimBertClassifier("m", MODELS)
    examples = separable_examples()
    losses = model.fit(examples, epochs=5)
    assert losses[-1] < losses[0]
    predictions = [model.predict(text) for text, _ in examples]
    truth = [label for _, label in examples]
    assert accuracy(truth, predictions) > 0.9


def test_bert_cost_reporting():
    model = SimBertClassifier("m", MODELS)
    assert model.payload_bytes() == MODELS.bert_bytes
    short = model.forward_flops("one two")
    long = model.forward_flops(" ".join(["word"] * 50))
    assert long > short
    assert model.train_step_flops("one two") == pytest.approx(
        short * (1 + MODELS.bert_train_backward_multiplier)
    )


def test_bert_empty_epoch_rejected():
    with pytest.raises(ValueError):
        SimBertClassifier("m", MODELS).train_epoch([])


def test_bert_encode_empty_text_is_zero_vector():
    model = SimBertClassifier("m", MODELS)
    assert np.allclose(model.encode("..."), 0.0)


# -- SimBART ------------------------------------------------------------------------------


def test_bart_extracts_answer():
    model = SimBartGenerator("bart", MODELS)
    context = (
        "The capital of Freedonia is Zembla. "
        "The river Osmo flows into lake Vantar."
    )
    assert model.generate("What is the capital of Freedonia?", context) == "zembla"
    assert (
        model.generate("Which lake does the river Osmo flow into?", context)
        == "vantar"
    )


def test_bart_cloze_filling():
    from repro.ml import MASK_TOKEN

    model = SimBartGenerator("bart", MODELS)
    context = "The founder of Kelvar was Dorim."
    cloze = f"The founder of Kelvar was {MASK_TOKEN}."
    assert model.generate(cloze, context) == "dorim"


def test_bart_no_match_returns_empty():
    model = SimBartGenerator("bart", MODELS)
    assert model.generate("What is x?", "") == ""


def test_bart_cost_reporting():
    model = SimBartGenerator("bart", MODELS)
    assert model.payload_bytes() == MODELS.bart_bytes
    assert model.generation_flops("q", "c" * 10) > 0


# -- TransE -----------------------------------------------------------------------------------


def make_kge():
    return TransEModel(
        [f"P{i}" for i in range(50)] + ["U0"], ["buys"], MODELS, seed=3
    )


def test_kge_embedding_lookup_and_table():
    model = make_kge()
    table = dict(model.embedding_table())
    assert set(table) == {f"P{i}" for i in range(50)} | {"U0"}
    assert np.allclose(table["P7"], model.embedding_of("P7"))


def test_kge_unknown_entity_and_relation():
    model = make_kge()
    with pytest.raises(MLError):
        model.embedding_of("nope")
    with pytest.raises(MLError):
        model.score("U0", "nope", np.zeros(32))


def test_kge_reverse_lookup_roundtrip():
    model = make_kge()
    assert model.reverse_lookup(model.embedding_of("P13")) == "P13"


def test_kge_validation():
    with pytest.raises(MLError):
        TransEModel([], ["r"], MODELS)
    with pytest.raises(MLError):
        TransEModel(["a", "a"], ["r"], MODELS)


def test_kge_cost_reporting():
    model = make_kge()
    assert model.payload_bytes() == MODELS.kge_bytes


# -- metrics --------------------------------------------------------------------------------------


def test_basic_metrics():
    truth = [1, 1, 0, 0]
    pred = [1, 0, 1, 0]
    assert accuracy(truth, pred) == 0.5
    assert precision(truth, pred) == 0.5
    assert recall(truth, pred) == 0.5
    assert f1_score(truth, pred) == 0.5


def test_metrics_degenerate_cases():
    assert precision([0, 0], [0, 0]) == 0.0
    assert recall([0, 0], [1, 1]) == 0.0
    assert f1_score([0], [0]) == 0.0


def test_metrics_length_checks():
    with pytest.raises(ValueError):
        accuracy([1], [1, 0])
    with pytest.raises(ValueError):
        accuracy([], [])


def test_exact_match_normalizes():
    assert exact_match(["Zembla "], ["zembla"]) == 1.0
    assert exact_match(["a", "b"], ["a", "x"]) == 0.5
