"""Dataset formats: BRAT annotations, clinical text, CSV parsing."""

from repro.storage.csvio import table_from_csv
from repro.storage.brat import (
    AnnotationDocument,
    EntityAnnotation,
    EventAnnotation,
    parse_annotations,
    serialize_annotations,
)
from repro.storage.textio import Sentence, TextDocument, split_sentences

__all__ = [
    "table_from_csv",
    "AnnotationDocument",
    "EntityAnnotation",
    "EventAnnotation",
    "parse_annotations",
    "serialize_annotations",
    "Sentence",
    "TextDocument",
    "split_sentences",
]
