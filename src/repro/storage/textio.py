"""Clinical text files and offset-preserving sentence splitting.

DICE links each sentence of a case report to the annotations whose
character spans fall inside it, so the splitter must report exact
character offsets into the original text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

__all__ = ["Sentence", "split_sentences", "TextDocument"]

#: One sentence: it starts at a non-whitespace character and runs, as
#: short as possible, to a terminator followed by whitespace, else to
#: the end of the text.  Whitespace is ``str.isspace()``: ``re``'s
#: ``\s`` matches exactly those code points.
_SENTENCE_RE = re.compile(r"(?=\S).*?(?:[.!?](?=\s)|\Z)", re.S)


@dataclass(frozen=True)
class Sentence:
    """One sentence with its character span in the source document."""

    doc_id: str
    index: int
    start: int  # inclusive
    end: int  # exclusive
    text: str

    def contains_span(self, start: int, end: int) -> bool:
        """Whether an annotation span lies entirely inside the sentence."""
        return self.start <= start and end <= self.end


@dataclass
class TextDocument:
    """A clinical case report: id plus raw text."""

    doc_id: str
    text: str

    def sentences(self) -> List[Sentence]:
        return split_sentences(self.doc_id, self.text)


def split_sentences(doc_id: str, text: str) -> List[Sentence]:
    """Split ``text`` into sentences, preserving character offsets.

    A sentence ends at ``.``, ``!`` or ``?`` followed by whitespace (or
    end of text).  Offsets index the *original* string; the sentence
    text is the exact slice, so ``text[s.start:s.end] == s.text`` holds
    (a property test asserts this invariant).
    """
    return [
        Sentence(doc_id, index, match.start(), match.end(), match.group())
        for index, match in enumerate(_SENTENCE_RE.finditer(text))
    ]
