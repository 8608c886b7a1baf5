"""In-memory tables: a schema plus an ordered list of tuples."""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Sequence
from typing import Tuple as PyTuple

from repro.errors import SchemaError
from repro.relational.schema import Schema
from repro.relational.tup import Tuple

__all__ = ["Table"]


class Table:
    """A small relational table used by both engines and the datasets.

    Tables are immutable in spirit: every transformation returns a new
    table.  This is deliberately a *simple* structure — the engines,
    not the table type, are where execution strategy lives.
    """

    def __init__(self, schema: Schema, rows: Iterable[Tuple] = ()) -> None:
        self.schema = schema
        self.rows: List[Tuple] = []
        for row in rows:
            if row.schema != schema:
                raise SchemaError(
                    f"row schema {row.schema!r} does not match table "
                    f"schema {schema!r}"
                )
            self.rows.append(row)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_dicts(
        cls, schema: Schema, records: Iterable[Mapping[str, Any]]
    ) -> "Table":
        """Build a table from dict records (missing fields -> None)."""
        return cls(schema, (Tuple.from_dict(schema, record) for record in records))

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence[Any]]) -> "Table":
        """Build a table from positional value rows."""
        return cls(schema, (Tuple(schema, row) for row in rows))

    # -- access ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> Tuple:
        return self.rows[index]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Table)
            and self.schema == other.schema
            and self.rows == other.rows
        )

    def multiset(self) -> List[PyTuple[str, ...]]:
        """Rows as a sorted list of stringified value tuples: the one
        definition of "same rows" — order-free, and total where raw
        values are not (``None`` next to a number, ``any`` columns)."""
        return sorted(tuple(map(str, row.values)) for row in self.rows)

    def is_empty(self) -> bool:
        return not self.rows

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        index = self.schema.index_of(name)
        return [row.values[index] for row in self.rows]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [row.as_dict() for row in self.rows]

    def head(self, n: int = 5) -> "Table":
        return Table(self.schema, self.rows[:n])

    # -- transformations ----------------------------------------------------------

    def filter(self, predicate: Callable[[Tuple], bool]) -> "Table":
        """Rows satisfying ``predicate``."""
        return Table(self.schema, (row for row in self.rows if predicate(row)))

    def project(self, names: Sequence[str]) -> "Table":
        """Table restricted to the given columns."""
        schema = self.schema.project(names)
        return Table(schema, (Tuple(schema, [row[n] for n in names]) for row in self.rows))

    def sort_by(self, name: str, reverse: bool = False) -> "Table":
        """Rows ordered by one column (stable)."""
        index = self.schema.index_of(name)
        ordered = sorted(self.rows, key=lambda row: row.values[index], reverse=reverse)
        return Table(self.schema, ordered)

    # -- sizing ------------------------------------------------------------------

    def payload_bytes(self) -> int:
        """Estimated serialized size of the table's data."""
        return sum(row.payload_bytes() for row in self.rows)

    def __repr__(self) -> str:
        return f"Table({len(self.rows)} rows, schema={self.schema.names})"
