"""Property-based tests for storage formats and payload sizing."""

import re
import string
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import estimate_bytes
from repro.storage import (
    AnnotationDocument,
    EntityAnnotation,
    EventAnnotation,
    parse_annotations,
    serialize_annotations,
    split_sentences,
)
from tests.support.sentence_oracle import sentence_spans

# -- sentence splitting ----------------------------------------------------------

texts = st.text(
    alphabet=string.ascii_letters + string.digits + " .!?,\n\t", max_size=400
)


#: Every whitespace code point ``str.isspace`` knows, the terminators,
#: and anything at all.
WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())
tricky = st.one_of(
    st.text(alphabet="ab .!?" + WHITESPACE, max_size=60),
    st.text(max_size=60),
)


def test_regex_whitespace_is_str_isspace():
    """The splitter's premise, on every code point."""
    space = re.compile(r"\s")
    assert all(
        bool(space.match(char)) == char.isspace()
        for char in map(chr, range(sys.maxunicode + 1))
    )


@settings(max_examples=500)
@given(tricky)
def test_sentences_are_the_character_loops_sentences(text):
    """The one-scan splitter returns the frozen loop's spans."""
    sentences = split_sentences("doc", text)
    assert [(s.start, s.end) for s in sentences] == sentence_spans(text)
    assert [s.text for s in sentences] == [text[a:b] for a, b in sentence_spans(text)]
    assert [s.index for s in sentences] == list(range(len(sentences)))
    assert all(s.doc_id == "doc" for s in sentences)


@given(texts)
def test_sentence_offsets_slice_back_to_text(text):
    for sentence in split_sentences("doc", text):
        assert text[sentence.start : sentence.end] == sentence.text


@given(texts)
def test_sentences_are_ordered_and_disjoint(text):
    sentences = split_sentences("doc", text)
    for earlier, later in zip(sentences, sentences[1:]):
        assert earlier.end <= later.start
    assert [s.index for s in sentences] == list(range(len(sentences)))


@given(texts)
def test_sentences_cover_all_non_whitespace(text):
    covered = set()
    for sentence in split_sentences("doc", text):
        covered.update(range(sentence.start, sentence.end))
    for position, char in enumerate(text):
        if not char.isspace():
            assert position in covered


# -- BRAT roundtrip -----------------------------------------------------------------

ann_types = st.sampled_from(["Age", "Sex", "Sign_symptom", "Clinical_event"])
covered_text = st.text(
    alphabet=string.ascii_lowercase + string.digits + "-", min_size=1, max_size=12
)


@st.composite
def annotation_documents(draw):
    num_entities = draw(st.integers(min_value=1, max_value=8))
    entities = []
    cursor = 0
    for index in range(num_entities):
        text = draw(covered_text)
        start = cursor
        end = start + len(text)
        cursor = end + 1
        entities.append(
            EntityAnnotation(f"T{index + 1}", draw(ann_types), start, end, text)
        )
    events = []
    num_events = draw(st.integers(min_value=0, max_value=5))
    for index in range(num_events):
        trigger = draw(st.sampled_from(entities))
        args = ()
        if draw(st.booleans()):
            arg_entity = draw(st.sampled_from(entities))
            args = (("Modifier", arg_entity.key),)
        events.append(
            EventAnnotation(
                f"E{index + 1}", trigger.ann_type, trigger.key, args
            )
        )
    return AnnotationDocument("doc", entities, events)


@given(annotation_documents())
@settings(max_examples=50)
def test_brat_roundtrip(document):
    content = serialize_annotations(document)
    parsed = parse_annotations("doc", content)
    assert parsed.entities == document.entities
    assert parsed.events == document.events
    parsed.validate_references()


# -- payload sizing ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=10,
)


@given(json_values)
def test_estimate_bytes_positive_and_deterministic(value):
    size = estimate_bytes(value)
    assert size > 0
    assert estimate_bytes(value) == size


@given(st.lists(st.integers(), max_size=20))
def test_estimate_bytes_monotonic_in_list_length(items):
    shorter = estimate_bytes(items)
    longer = estimate_bytes(items + [0])
    assert longer > shorter


@given(st.text(max_size=100))
def test_estimate_bytes_monotonic_in_string_length(text):
    assert estimate_bytes(text + "x") > estimate_bytes(text)
