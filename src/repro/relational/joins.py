"""Join algorithms over tables and tuple streams.

Two shapes are provided:

* :func:`hash_join` — classic build/probe over two complete tables.  No
  script implementation calls it (the task code joins by dict lookup);
  it is the reference that ``test_streaming_join_equals_batch_join``
  and other tests compare executor output against.
* :class:`StreamingHashJoin` — build side materialized once, probe side
  consumed tuple-at-a-time; this is the operator core the workflow
  engine pipelines.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Tuple as PyTuple

from repro.errors import SchemaError
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.tup import Tuple

__all__ = ["hash_join", "StreamingHashJoin", "join_schema"]

_JOIN_KINDS = ("inner", "left", "left_anti", "left_semi")


def join_schema(left: Schema, right: Schema, suffix: str = "_right") -> Schema:
    """Output schema of an inner/left join of two input schemas."""
    return left.concat(right, suffix=suffix)


def _build_index(rows: Iterable[Tuple], key: str) -> Dict[Any, List[Tuple]]:
    index: Dict[Any, List[Tuple]] = {}
    for row in rows:
        index.setdefault(row[key], []).append(row)
    return index


def _null_row(schema: Schema) -> Tuple:
    """The build side of a left join's unmatched output."""
    return Tuple(schema, [None] * len(schema))


def hash_join(
    left: Table,
    right: Table,
    left_key: str,
    right_key: str,
    how: str = "inner",
    suffix: str = "_right",
) -> Table:
    """Join two tables by equality on one key per side.

    The batch reference for :class:`StreamingHashJoin`: tests compare
    the engines' join output against it.  ``how`` is one of:

    * ``inner`` — matching pairs only;
    * ``left`` — every left row, right columns null when unmatched;
    * ``left_semi`` — left rows having at least one match (left schema);
    * ``left_anti`` — left rows having no match (left schema).
    """
    if how not in _JOIN_KINDS:
        raise ValueError(f"how must be one of {_JOIN_KINDS}, got {how!r}")
    left.schema.index_of(left_key)
    right.schema.index_of(right_key)

    index = _build_index(right.rows, right_key)

    if how in ("left_semi", "left_anti"):
        keep_matched = how == "left_semi"
        rows = [row for row in left.rows if (row[left_key] in index) == keep_matched]
        return Table(left.schema, rows)

    out_schema = join_schema(left.schema, right.schema, suffix=suffix)
    unmatched = [_null_row(right.schema)] if how == "left" else []
    out_rows: List[Tuple] = []
    for row in left.rows:
        for match in index.get(row[left_key]) or unmatched:
            out_rows.append(Tuple.joined(out_schema, row, match))
    return Table(out_schema, out_rows)


class StreamingHashJoin:
    """Build-once, probe-per-tuple hash join for pipelined execution.

    The build side must be fully consumed before probing begins —
    exactly the blocking/pipelined boundary a dataflow engine sees.  A
    probe yields zero or more output tuples immediately, so downstream
    operators can start before the probe side is exhausted.
    """

    def __init__(
        self,
        build_schema: Schema,
        probe_schema: Schema,
        build_key: str,
        probe_key: str,
        how: str = "inner",
        suffix: str = "_right",
    ) -> None:
        if how not in ("inner", "left"):
            raise ValueError(f"streaming join supports inner/left, got {how!r}")
        build_schema.index_of(build_key)
        probe_schema.index_of(probe_key)
        self.build_key = build_key
        self.probe_key = probe_key
        self.how = how
        self.build_schema = build_schema
        self.probe_schema = probe_schema
        # Probe side is "left" in the output for natural reading order.
        self.output_schema = join_schema(probe_schema, build_schema, suffix=suffix)
        self._unmatched = [_null_row(build_schema)] if how == "left" else []
        self._index: Dict[Any, List[Tuple]] = {}
        self._build_done = False

    def add_build_tuple(self, row: Tuple) -> None:
        """Insert one build-side tuple into the hash index."""
        if self._build_done:
            raise SchemaError("build side already finished")
        self._index.setdefault(row[self.build_key], []).append(row)

    def finish_build(self) -> None:
        """Mark the build side complete; probing may begin."""
        self._build_done = True

    def snapshot(self) -> PyTuple[bool, Dict[Any, List[Tuple]]]:
        """The build state: ``_build_done`` and the index.

        A finished index is only read from then on, so the snapshot
        shares it; an unfinished one is copied list by list.
        """
        if self._build_done:
            return True, self._index
        return False, {key: list(rows) for key, rows in self._index.items()}

    def restore(self, state: PyTuple[bool, Dict[Any, List[Tuple]]]) -> None:
        """Roll back to a :meth:`snapshot`; it stays valid for another restore."""
        self._build_done, index = state
        if not self._build_done:
            index = {key: list(rows) for key, rows in index.items()}
        self._index = index

    @property
    def build_size(self) -> int:
        return sum(len(rows) for rows in self._index.values())

    def probe(self, row: Tuple) -> Iterator[Tuple]:
        """Yield join outputs for one probe-side tuple."""
        if not self._build_done:
            raise SchemaError("probe before build side finished")
        for match in self._index.get(row[self.probe_key]) or self._unmatched:
            yield Tuple.joined(self.output_schema, row, match)
