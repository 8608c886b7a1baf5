"""Unit tests for sentence splitting."""

from repro.storage import TextDocument, split_sentences


def test_split_simple_sentences():
    text = "First sentence. Second one! Third?"
    sentences = split_sentences("d", text)
    assert [s.text for s in sentences] == [
        "First sentence.",
        "Second one!",
        "Third?",
    ]


def test_offsets_slice_back_to_text():
    text = "The patient was a 34-yr-old man. He presented with fever.  Cough too."
    for s in split_sentences("d", text):
        assert text[s.start : s.end] == s.text


def test_abbreviation_like_periods_without_space_do_not_split():
    text = "Dosage was 2.5 mg daily. Next sentence."
    sentences = split_sentences("d", text)
    assert len(sentences) == 2
    assert sentences[0].text == "Dosage was 2.5 mg daily."


def test_unterminated_tail_becomes_sentence():
    sentences = split_sentences("d", "No terminator here")
    assert len(sentences) == 1
    assert sentences[0].text == "No terminator here"


def test_empty_and_whitespace_text():
    assert split_sentences("d", "") == []
    assert split_sentences("d", "   \n  ") == []


def test_sentence_indices_sequential():
    sentences = split_sentences("d", "A. B. C.")
    assert [s.index for s in sentences] == [0, 1, 2]


def test_contains_span():
    sentences = split_sentences("d", "Hello there. Goodbye now.")
    first, second = sentences
    assert first.contains_span(0, 5)
    assert not first.contains_span(13, 20)
    assert second.contains_span(13, 20)


def test_text_document_sentences():
    doc = TextDocument("d1", "One. Two.")
    assert len(doc.sentences()) == 2
    assert doc.sentences()[0].doc_id == "d1"

