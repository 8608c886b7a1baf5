"""Immutable schema-checked tuples (named ``tup`` to avoid shadowing
the built-in ``tuple``)."""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence, Tuple as PyTuple, Union

from repro.cluster.serialization import (
    _OBJECT_OVERHEAD,
    _register_row_types,
    estimate_bytes,
)
from repro.relational.schema import Schema, _schema_bytes

__all__ = ["Tuple"]


class Tuple:
    """One row of data: values bound to a :class:`Schema`.

    Tuples are immutable; derivation methods return new tuples.  Field
    access works both by name and by position::

        t["text"]   # by name
        t[0]        # by position
    """

    __slots__ = ("schema", "values", "_nbytes")

    def __init__(self, schema: Schema, values: Sequence[Any]) -> None:
        schema.validate(values)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "_nbytes", -1)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Tuple is immutable")

    def __deepcopy__(self, memo: Dict[int, Any]) -> "Tuple":
        # Immutable (and holding only immutable values), so a deep copy
        # is the object itself; also keeps operator-state checkpoints
        # (repro.workflow recovery) from tripping over __setattr__.
        return self

    def __getstate__(self) -> PyTuple[None, Dict[str, Any]]:
        # The slot state as an unsized row has it: a row's pickle (and
        # so every fingerprint of it) is the same before and after
        # payload_bytes() caches the size.
        return None, {"schema": self.schema, "values": self.values, "_nbytes": -1}

    def __setstate__(self, state: PyTuple[None, Dict[str, Any]]) -> None:
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_dict(cls, schema: Schema, mapping: Mapping[str, Any]) -> "Tuple":
        """Build a tuple from a field-name mapping (missing -> None)."""
        return cls(schema, [mapping.get(name) for name in schema.names])

    @classmethod
    def joined(cls, schema: Schema, left: "Tuple", right: "Tuple") -> "Tuple":
        """The row of ``left``'s values followed by ``right``'s.

        Sized from its two sides: a values tuple costs 16 bytes plus its
        entries, so the joined one costs both sides' payloads less one
        16.  Sizing either side here is a cache hit on a row that crossed
        a channel, and the output is never walked.
        """
        values = left.values + right.values
        schema.validate(values)
        row = cls.__new__(cls)
        object.__setattr__(row, "schema", schema)
        object.__setattr__(row, "values", values)
        object.__setattr__(
            row,
            "_nbytes",
            left.payload_bytes() + right.payload_bytes() - _OBJECT_OVERHEAD,
        )
        return row

    # -- access ----------------------------------------------------------------

    def __getitem__(self, key: Union[str, int]) -> Any:
        if isinstance(key, str):
            return self.values[self.schema.index_of(key)]
        return self.values[key]

    def as_dict(self) -> Dict[str, Any]:
        return dict(zip(self.schema._index, self.values))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tuple)
            and self.schema == other.schema
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.schema, self.values))

    # -- derivation ---------------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Tuple":
        """Tuple restricted to the given fields."""
        schema = self.schema.project(names)
        return Tuple(schema, [self[name] for name in names])

    def concat(self, other: "Tuple", suffix: str = "_right") -> "Tuple":
        """Join-style concatenation of two tuples."""
        return Tuple.joined(self.schema.concat(other.schema, suffix=suffix), self, other)

    # -- sizing ------------------------------------------------------------------

    def payload_bytes(self) -> int:
        """Estimated serialized size (values only; schema is shared).

        Cached after the first call: values are immutable, so the
        estimate never changes, and batch accounting in the workflow
        engine asks for it once per channel hop.  That covers what the
        values hold: an ANY-typed list mutated in place after the first
        call keeps its first size here, at ``put`` and at ``adopt``.  A
        :meth:`joined` row starts with its sides' sizes, so neither
        side's values may change after the join sized them.
        """
        nbytes = self._nbytes
        if nbytes < 0:
            nbytes = estimate_bytes(self.values)
            object.__setattr__(self, "_nbytes", nbytes)
        return nbytes

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.schema.names, self.values)
        )
        return f"Tuple({pairs})"


_register_row_types(Tuple, Schema, _schema_bytes)
