"""CSV parsing for relational tables.

A minimal, dependency-free CSV reader (stdlib ``csv``) so a workflow's
``csv_source`` can scan spreadsheet-paradigm content — the third
paradigm the paper's introduction mentions alongside scripts and
workflows.  Values are parsed per the schema's field types; an empty
cell is null.
"""

from __future__ import annotations

import csv
import io
from typing import Any, List

from repro.errors import StorageError
from repro.relational import FieldType, Schema, Table

__all__ = ["table_from_csv"]

_NULL = ""


def _parse(text: str, ftype: FieldType) -> Any:
    if text == _NULL:
        return None
    try:
        if ftype is FieldType.INT:
            return int(text)
        if ftype is FieldType.FLOAT:
            return float(text)
        if ftype is FieldType.BOOL:
            if text not in ("true", "false"):
                raise ValueError(f"not a bool: {text!r}")
            return text == "true"
        return text  # STRING and ANY stay textual
    except ValueError as exc:
        raise StorageError(f"cannot parse {text!r} as {ftype.value}") from exc


def table_from_csv(content: str, schema: Schema) -> Table:
    """Parse CSV text into a table of ``schema``.

    The header must name exactly the schema's fields (any order);
    columns are reordered to the schema.
    """
    reader = csv.reader(io.StringIO(content))
    try:
        header = next(reader)
    except StopIteration:
        raise StorageError("empty CSV: missing header row") from None
    missing = [name for name in schema.names if name not in header]
    extra = [name for name in header if name not in schema]
    if missing or extra:
        raise StorageError(
            f"CSV header mismatch: missing {missing}, unexpected {extra}"
        )
    positions = [header.index(name) for name in schema.names]
    rows: List[List[Any]] = []
    for line_number, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != len(header):
            raise StorageError(
                f"line {line_number}: expected {len(header)} fields, "
                f"got {len(record)}"
            )
        rows.append(
            [
                _parse(record[position], field.ftype)
                for position, field in zip(positions, schema.fields)
            ]
        )
    return Table.from_rows(schema, rows)

