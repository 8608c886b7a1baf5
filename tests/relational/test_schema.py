"""Unit tests for Schema/Field/FieldType."""

import pytest

from repro.errors import DuplicateField, FieldNotFound, TypeMismatch
from repro.relational import Field, FieldType, Schema


def accepts(ftype, value):
    try:
        Schema.of(x=ftype).validate([value])
    except TypeMismatch:
        return False
    return True


def test_field_type_acceptance():
    assert accepts(FieldType.INT, 5)
    assert not accepts(FieldType.INT, True)  # bools are not ints here
    assert not accepts(FieldType.INT, 5.0)
    assert accepts(FieldType.FLOAT, 5)  # ints widen to float
    assert accepts(FieldType.FLOAT, 5.5)
    assert not accepts(FieldType.FLOAT, "5")
    assert accepts(FieldType.STRING, "x")
    assert not accepts(FieldType.STRING, 5)
    assert accepts(FieldType.BOOL, True)
    assert not accepts(FieldType.BOOL, 1)
    assert accepts(FieldType.ANY, object())


def test_all_types_accept_none():
    for ftype in FieldType:
        assert accepts(ftype, None)


def test_field_validation():
    with pytest.raises(ValueError):
        Field("")
    with pytest.raises(TypeError):
        Field("x", "int")


def test_schema_of_and_names():
    schema = Schema.of(id=FieldType.INT, text=FieldType.STRING)
    assert schema.names == ["id", "text"]
    # A fresh list each call: a caller may change its copy.
    names = schema.names
    names.append("extra")
    assert schema.names == ["id", "text"]
    assert schema.names is not schema.names
    assert len(schema) == 2
    assert "id" in schema
    assert "missing" not in schema


def test_duplicate_field_rejected():
    with pytest.raises(DuplicateField):
        Schema([Field("x"), Field("x")])


def test_index_of_and_field():
    schema = Schema.of(a=FieldType.INT, b=FieldType.STRING)
    assert schema.index_of("b") == 1
    assert schema.field("a").ftype is FieldType.INT
    with pytest.raises(FieldNotFound):
        schema.index_of("z")


def test_project_preserves_order_given():
    schema = Schema([Field("a"), Field("b"), Field("c")])
    assert schema.project(["c", "a"]).names == ["c", "a"]


def test_concat_suffixes_collisions():
    left = Schema.of(id=FieldType.INT, text=FieldType.STRING)
    right = Schema.of(id=FieldType.INT, score=FieldType.FLOAT)
    joined = left.concat(right)
    assert joined.names == ["id", "text", "id_right", "score"]


def test_validate_arity_and_types():
    schema = Schema.of(id=FieldType.INT, name=FieldType.STRING)
    schema.validate([1, "ok"])
    schema.validate([None, None])  # nullable
    with pytest.raises(TypeMismatch):
        schema.validate([1])
    with pytest.raises(TypeMismatch):
        schema.validate(["not-int", "ok"])


def test_schema_equality_and_hash():
    a = Schema.of(x=FieldType.INT)
    b = Schema.of(x=FieldType.INT)
    c = Schema.of(x=FieldType.FLOAT)
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
