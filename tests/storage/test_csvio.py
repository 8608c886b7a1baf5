"""Unit tests for CSV table IO."""

import pytest

from repro.errors import StorageError
from repro.relational import FieldType, Schema
from repro.storage import table_from_csv

SCHEMA = Schema.of(
    id=FieldType.INT,
    name=FieldType.STRING,
    price=FieldType.FLOAT,
    active=FieldType.BOOL,
)


def test_roundtrip_in_memory():
    text = (
        "id,name,price,active\n"
        "1,widget,9.99,true\n"
        "2,gizmo,0.5,false\n"
        "3,,,\n"
    )
    assert table_from_csv(text, SCHEMA).to_dicts() == [
        {"id": 1, "name": "widget", "price": 9.99, "active": True},
        {"id": 2, "name": "gizmo", "price": 0.5, "active": False},
        {"id": 3, "name": None, "price": None, "active": None},
    ]


def test_nulls_roundtrip_as_empty():
    table = table_from_csv("id,name,price,active\n,,,\n", SCHEMA)
    assert table[0].as_dict() == {
        "id": None,
        "name": None,
        "price": None,
        "active": None,
    }


def test_column_reordering():
    text = "name,id,active,price\nwidget,1,true,9.99\n"
    table = table_from_csv(text, SCHEMA)
    assert table[0]["id"] == 1
    assert table[0]["name"] == "widget"


def test_missing_header_rejected():
    with pytest.raises(StorageError, match="missing"):
        table_from_csv("id,name\n1,x\n", SCHEMA)


def test_extra_column_rejected():
    with pytest.raises(StorageError, match="unexpected"):
        table_from_csv("id,name,price,active,bonus\n", SCHEMA)


def test_empty_content_rejected():
    with pytest.raises(StorageError, match="empty"):
        table_from_csv("", SCHEMA)


def test_bad_int_rejected():
    with pytest.raises(StorageError, match="parse"):
        table_from_csv("id,name,price,active\nnotanint,x,1.0,true\n", SCHEMA)


def test_bad_bool_rejected():
    with pytest.raises(StorageError):
        table_from_csv("id,name,price,active\n1,x,1.0,yes\n", SCHEMA)


def test_ragged_row_rejected():
    with pytest.raises(StorageError, match="expected"):
        table_from_csv("id,name,price,active\n1,x\n", SCHEMA)


def test_quoted_commas_roundtrip():
    text = 'id,name,price,active\n1,"a,b,c",1.0,true\n'
    table = table_from_csv(text, SCHEMA)
    assert len(table) == 1
    assert table[0].as_dict() == {
        "id": 1,
        "name": "a,b,c",
        "price": 1.0,
        "active": True,
    }
