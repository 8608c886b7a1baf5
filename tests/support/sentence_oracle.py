"""The character-loop sentence splitter, frozen as the oracle.

A verbatim copy of the loop ``repro.storage.textio.split_sentences`` ran
before it became one regex scan, returning ``(start, end)`` spans: skip
whitespace, then run to a terminator (``.``, ``!``, ``?``) followed by
whitespace or the end of the text, else to the end of the text.
"""

_TERMINATORS = ".!?"


def sentence_spans(text):
    spans = []
    cursor = 0
    length = len(text)
    while cursor < length:
        # Skip leading whitespace between sentences.
        while cursor < length and text[cursor].isspace():
            cursor += 1
        if cursor >= length:
            break
        start = cursor
        end = cursor
        while end < length:
            char = text[end]
            if char in _TERMINATORS and (end + 1 >= length or text[end + 1].isspace()):
                end += 1  # include the terminator
                break
            end += 1
        spans.append((start, end))
        cursor = end
    return spans
