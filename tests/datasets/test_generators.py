"""Unit tests for the synthetic dataset generators."""

import pytest

from repro.config import default_config
from repro.datasets import (
    FRAMINGS,
    build_kge_model,
    catalog_table,
    generate_catalog,
    generate_fsqa,
    generate_maccrobat,
    generate_wildfire_tweets,
    train_test_split,
    user_ids,
)
from repro.ml import SimBartGenerator, exact_match
from repro.storage import split_sentences


# -- MACCROBAT -----------------------------------------------------------------


def test_maccrobat_count_and_determinism():
    a = generate_maccrobat(num_docs=5, seed=7)
    b = generate_maccrobat(num_docs=5, seed=7)
    assert len(a) == 5
    assert [r.text for r in a] == [r.text for r in b]
    c = generate_maccrobat(num_docs=5, seed=8)
    assert [r.text for r in a] != [r.text for r in c]


def test_maccrobat_spans_slice_to_text():
    for report in generate_maccrobat(num_docs=10, seed=1):
        for entity in report.annotations.entities:
            assert report.text[entity.start : entity.end] == entity.text


def test_maccrobat_events_reference_entities():
    for report in generate_maccrobat(num_docs=10, seed=2):
        report.annotations.validate_references()  # raises on dangling refs


def test_maccrobat_has_event_and_non_event_entities():
    report = generate_maccrobat(num_docs=1, seed=3, min_sentences=12, max_sentences=12)[0]
    triggered = {e.trigger_ref for e in report.annotations.events}
    all_keys = {e.key for e in report.annotations.entities}
    assert triggered  # some events
    assert all_keys - triggered  # some entities not triggering events


def test_maccrobat_annotations_fit_in_sentences():
    report = generate_maccrobat(num_docs=1, seed=4)[0]
    sentences = split_sentences(report.doc_id, report.text)
    for entity in report.annotations.entities:
        assert any(s.contains_span(entity.start, entity.end) for s in sentences)


def test_maccrobat_validation():
    with pytest.raises(ValueError):
        generate_maccrobat(num_docs=0)
    with pytest.raises(ValueError):
        generate_maccrobat(num_docs=1, min_sentences=5, max_sentences=2)


# -- wildfire tweets ----------------------------------------------------------------


def test_wildfire_count_and_labels():
    tweets = generate_wildfire_tweets(num_tweets=100, seed=11)
    assert len(tweets) == 100
    for tweet in tweets:
        assert len(tweet.labels) == len(FRAMINGS)
        assert 1 <= sum(tweet.labels) <= 4
        assert tweet.text


def test_wildfire_determinism():
    a = generate_wildfire_tweets(50, seed=5)
    b = generate_wildfire_tweets(50, seed=5)
    assert [t.text for t in a] == [t.text for t in b]


def test_wildfire_every_framing_occurs():
    tweets = generate_wildfire_tweets(200, seed=11)
    for index in range(len(FRAMINGS)):
        assert any(t.labels[index] for t in tweets)


def test_wildfire_label_of():
    tweet = generate_wildfire_tweets(1, seed=1)[0]
    assert tweet.label_of(FRAMINGS[0]) == tweet.labels[0]


def test_train_test_split():
    tweets = generate_wildfire_tweets(100, seed=11)
    train, test = train_test_split(tweets, 0.8)
    assert len(train) == 80
    assert len(test) == 20
    with pytest.raises(ValueError):
        train_test_split(tweets, 1.0)


def test_wildfire_vocabulary_is_learnable():
    """A SimBERT classifier beats chance on framing 0."""
    from repro.ml import SimBertClassifier, accuracy

    tweets = generate_wildfire_tweets(400, seed=11)
    train, test = train_test_split(tweets)
    model = SimBertClassifier("f0", default_config().models)
    model.fit([(t.text, t.labels[0]) for t in train], epochs=4)
    truth = [t.labels[0] for t in test]
    predictions = [model.predict(t.text) for t in test]
    assert accuracy(truth, predictions) > 0.7


# -- FSQA ---------------------------------------------------------------------------------


def test_fsqa_shape_and_determinism():
    a = generate_fsqa(num_paragraphs=4, facts_per_paragraph=3, seed=17)
    b = generate_fsqa(num_paragraphs=4, facts_per_paragraph=3, seed=17)
    assert len(a) == 4
    assert all(len(p.examples) == 3 for p in a)
    assert [p.context for p in a] == [p.context for p in b]


def test_fsqa_answers_present_in_context():
    for paragraph in generate_fsqa(num_paragraphs=6, seed=17):
        for example in paragraph.examples:
            assert example.answer in paragraph.context
            assert "[MASK]" in example.cloze
            assert example.answer not in example.cloze


def test_fsqa_simbart_answers_exactly():
    model = SimBartGenerator("bart", default_config().models)
    paragraphs = generate_fsqa(num_paragraphs=8, seed=17)
    truth, predictions = [], []
    for paragraph in paragraphs:
        for example in paragraph.examples:
            truth.append(example.answer)
            predictions.append(model.generate(example.question, paragraph.context))
    assert exact_match(truth, predictions) == 1.0


def test_fsqa_simbart_fills_cloze_exactly():
    model = SimBartGenerator("bart", default_config().models)
    paragraph = generate_fsqa(num_paragraphs=1, seed=17)[0]
    for example in paragraph.examples:
        assert (
            model.generate(example.cloze, paragraph.context).lower()
            == example.answer.lower()
        )


def test_fsqa_validation():
    with pytest.raises(ValueError):
        generate_fsqa(num_paragraphs=0)
    with pytest.raises(ValueError):
        generate_fsqa(facts_per_paragraph=0)


# -- Amazon catalog -----------------------------------------------------------------------------


def test_catalog_shape_and_determinism():
    a = generate_catalog(num_products=100, seed=23)
    b = generate_catalog(num_products=100, seed=23)
    assert len(a) == 100
    assert a == b
    assert len({p.product_id for p in a}) == 100


def test_catalog_out_of_stock_fraction_roughly_respected():
    products = generate_catalog(num_products=2000, seed=23, out_of_stock_fraction=0.2)
    fraction = sum(1 for p in products if not p.in_stock) / len(products)
    assert 0.15 < fraction < 0.25


def test_catalog_table_schema():
    table = catalog_table(generate_catalog(10, seed=1))
    assert table.schema.names == ["product_id", "name", "category", "price", "in_stock"]
    assert len(table) == 10


def test_build_kge_model_covers_entities():
    products = generate_catalog(50, seed=23)
    users = user_ids(4)
    model = build_kge_model(products, users)
    assert model.num_entities == 54
    entities = {entity for entity, _ in model.embedding_table()}
    assert {"U0003", products[0].product_id} <= entities


def test_catalog_validation():
    with pytest.raises(ValueError):
        generate_catalog(0)
    with pytest.raises(ValueError):
        generate_catalog(1, out_of_stock_fraction=1.0)
    with pytest.raises(ValueError):
        user_ids(0)
