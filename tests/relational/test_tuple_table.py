"""Unit tests for Tuple and Table."""

import copy
import pickle

import pytest

from repro.errors import SchemaError, TypeMismatch
from repro.relational import FieldType, Schema, Table, Tuple, column_greater

SCHEMA = Schema.of(id=FieldType.INT, name=FieldType.STRING, score=FieldType.FLOAT)


def row(i, name, score):
    return Tuple(SCHEMA, [i, name, score])


def test_tuple_access_by_name_and_index():
    t = row(1, "a", 0.5)
    assert t["id"] == 1
    assert t[1] == "a"


def test_tuple_immutable():
    t = row(1, "a", 0.5)
    with pytest.raises(AttributeError):
        t.values = (2,)


def test_tuple_schema_validation():
    with pytest.raises(TypeMismatch):
        Tuple(SCHEMA, ["not-int", "a", 0.5])


def test_tuple_from_dict_fills_missing_with_none():
    t = Tuple.from_dict(SCHEMA, {"id": 3})
    assert t["name"] is None


def test_tuple_project():
    p = row(1, "a", 0.5).project(["name", "id"])
    assert p.as_dict() == {"name": "a", "id": 1}


def test_tuple_concat_suffixes():
    other = Tuple(Schema.of(id=FieldType.INT), [7])
    merged = row(1, "a", 0.5).concat(other)
    assert merged["id_right"] == 7


def test_tuple_equality_and_hash():
    assert row(1, "a", 0.5) == row(1, "a", 0.5)
    assert hash(row(1, "a", 0.5)) == hash(row(1, "a", 0.5))
    assert row(1, "a", 0.5) != row(2, "a", 0.5)


def test_tuple_payload_bytes_positive():
    assert row(1, "abc", 0.5).payload_bytes() > 0


def make_table():
    return Table.from_rows(
        SCHEMA,
        [[1, "a", 0.9], [2, "b", 0.1], [3, "a", 0.5], [4, "c", 0.7]],
    )


def test_table_rejects_foreign_schema_rows():
    other = Tuple(Schema.of(x=FieldType.INT), [1])
    with pytest.raises(SchemaError):
        Table(SCHEMA, [other])


def test_table_filter_with_predicate():
    table = make_table().filter(column_greater("score", 0.4))
    assert table.column("id") == [1, 3, 4]


def test_table_project():
    table = make_table().project(["name"])
    assert table.schema.names == ["name"]
    assert table.column("name") == ["a", "b", "a", "c"]


def test_table_sort_by_and_limit():
    table = make_table().sort_by("score", reverse=True).head(2)
    assert table.column("id") == [1, 4]


def test_table_from_dicts_and_to_dicts_roundtrip():
    records = [{"id": 1, "name": "x", "score": 0.3}]
    table = Table.from_dicts(SCHEMA, records)
    assert table.to_dicts() == records


def test_table_head_and_is_empty():
    assert len(make_table().head(2)) == 2
    assert Table(SCHEMA).is_empty()


def test_rows_and_tables_survive_pickle_and_shallow_copy():
    plain = row(1, "a", 0.5)
    sized = row(2, "b", 1.5)
    sized.payload_bytes()
    joined = Tuple.joined(SCHEMA.concat(SCHEMA), plain, sized)
    for original in (plain, sized, joined):
        for twin in (pickle.loads(pickle.dumps(original)), copy.copy(original)):
            assert twin == original
            assert twin.payload_bytes() == original.payload_bytes()
            with pytest.raises(AttributeError):
                twin.values = ()
    table = Table(SCHEMA, [plain, sized])
    assert pickle.loads(pickle.dumps(table)).rows == table.rows


def test_a_rows_pickle_does_not_depend_on_its_size_cache():
    fresh = row(1, "a", 0.5)
    before = pickle.dumps(fresh, protocol=4)
    fresh.payload_bytes()
    assert pickle.dumps(fresh, protocol=4) == before
