"""Unit tests for payload sizing and codecs."""

import numpy as np
import pytest

from repro.cluster import Sized, estimate_bytes, make_codecs
from repro.config import SerializationConfig
from repro.relational import FieldType, Schema, Tuple


class Blob(Sized):
    def __init__(self, nbytes):
        self._nbytes = nbytes

    def payload_bytes(self):
        return self._nbytes


def test_primitive_sizes():
    assert estimate_bytes(None) == 4
    assert estimate_bytes(True) == 4
    assert estimate_bytes(7) == 8
    assert estimate_bytes(3.14) == 8
    assert estimate_bytes("abcd") == 16 + 4
    assert estimate_bytes(b"abcd") == 16 + 4


def test_container_sizes_grow_with_content():
    small = estimate_bytes([1, 2])
    big = estimate_bytes([1, 2, 3, 4, 5, 6])
    assert big > small


def test_dict_counts_keys_and_values():
    assert estimate_bytes({"k": 1}) == 16 + 8 + (16 + 1) + 8


def test_numpy_arrays_use_nbytes():
    arr = np.zeros(1000, dtype=np.float64)
    assert estimate_bytes(arr) == 16 + 8000


def test_sized_protocol_wins():
    assert estimate_bytes(Blob(12345)) == 12345


def test_plain_object_sizes_its_fields():
    class Point:
        def __init__(self):
            self.x = 1.0
            self.y = 2.0

    assert estimate_bytes(Point()) > 16


def test_interpreter_dependent_row_bytes_are_pinned():
    """The stored-row cost model, as three integers (CPython 3.11).

    A row in the script object store pays for its own ``Schema``: the
    four attributes ``Schema.__init__`` sets, down to the ``FieldType``
    members' enum-machinery ``__dict__`` — the one term that depends on
    the interpreter.  Every put/get charge, Fig 13d and every
    ``SEED_TIMINGS`` float hang off these; a Python upgrade that moves
    them must fail here by name, not in forty floats.
    """
    schema = Schema.of(id=FieldType.INT, text=FieldType.STRING)
    rows = [Tuple(schema, [1, "ab"]), Tuple(schema, [2, "cd"])]
    assert estimate_bytes(schema) == 939
    assert estimate_bytes(rows[0]) == 48 + 939 + rows[0].payload_bytes() == 1045
    assert estimate_bytes(rows) == 16 + 2 * (8 + 1045) == 2122


def test_schema_size_ignores_attributes_added_after_construction():
    """A memo hung on a schema must not move every stored row's size."""
    schema = Schema.of(id=FieldType.INT, text=FieldType.STRING)
    schema.memo = "x" * 1000
    assert estimate_bytes(schema) == 939


def test_estimate_is_deterministic():
    payload = {"a": [1, 2, 3], "b": ("x", 2.0), "c": {"nested": None}}
    assert estimate_bytes(payload) == estimate_bytes(payload)


def test_codec_times():
    codecs = make_codecs(SerializationConfig(base_s=0.001, python_bytes_per_s=1e6))
    assert codecs.python.encode_time(1000) == pytest.approx(0.002)
    assert codecs.python.decode_time(1000) == pytest.approx(0.002)


def test_codec_rejects_negative_size():
    codecs = make_codecs(SerializationConfig())
    with pytest.raises(ValueError):
        codecs.python.encode_time(-1)


def test_boundary_codec_selection():
    codecs = make_codecs(SerializationConfig())
    assert codecs.for_boundary("python", "python").name == "python"
    assert codecs.for_boundary("scala", "scala").name == "jvm"
    assert codecs.for_boundary("scala", "java").name == "jvm"
    assert codecs.for_boundary("python", "scala").name == "cross-language"
    assert codecs.for_boundary("java", "python").name == "cross-language"


def test_cross_language_is_slowest():
    codecs = make_codecs(SerializationConfig())
    nbytes = 10**6
    assert codecs.cross_language.encode_time(nbytes) > codecs.python.encode_time(nbytes)
    assert codecs.python.encode_time(nbytes) > codecs.jvm.encode_time(nbytes)
