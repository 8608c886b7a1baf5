"""Relational schemas for tuples flowing through the engines.

Texera operators exchange *tuples* with explicit schemas; the workflow
compiler propagates schemas edge-by-edge so misconfigured workflows fail
at compile time rather than mid-run.  The script runtime reuses the same
tuple/table types so both paradigms compute over identical data.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.cluster.serialization import _OBJECT_OVERHEAD, estimate_bytes
from repro.errors import DuplicateField, FieldNotFound, TypeMismatch

__all__ = ["FieldType", "Field", "Schema"]


class FieldType(enum.Enum):
    """Value types supported by the tuple model."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"
    ANY = "any"  # opaque payloads (embeddings, model handles, ...)


def _accepts_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _accepts_float(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _accepts_string(value: Any) -> bool:
    return isinstance(value, str)


def _accepts_bool(value: Any) -> bool:
    return isinstance(value, bool)


#: Per-type checker functions (None for ANY: accepts everything).
#: ``Schema.validate`` runs per row on the workflow hot path, so the
#: type dispatch is resolved once per schema instead of per value.
_CHECKERS = {
    FieldType.INT: _accepts_int,
    FieldType.FLOAT: _accepts_float,
    FieldType.STRING: _accepts_string,
    FieldType.BOOL: _accepts_bool,
    FieldType.ANY: None,
}


class Field:
    """A named, typed column."""

    __slots__ = ("name", "ftype")

    def __init__(self, name: str, ftype: FieldType = FieldType.ANY) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"field name must be a non-empty string, got {name!r}")
        if not isinstance(ftype, FieldType):
            raise TypeError(f"ftype must be a FieldType, got {ftype!r}")
        self.name = name
        self.ftype = ftype

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and self.name == other.name
            and self.ftype is other.ftype
        )

    def __hash__(self) -> int:
        return hash((self.name, self.ftype))

    def __repr__(self) -> str:
        return f"Field({self.name!r}, {self.ftype.value})"


class Schema:
    """An ordered collection of uniquely named fields."""

    def __init__(self, fields: Iterable[Field]) -> None:
        self.fields: Tuple[Field, ...] = tuple(fields)
        self._index: Dict[str, int] = {}
        for position, field in enumerate(self.fields):
            if field.name in self._index:
                raise DuplicateField(f"duplicate field name {field.name!r}")
            self._index[field.name] = position
        self._checkers = tuple(_CHECKERS[f.ftype] for f in self.fields)
        self._arity = len(self.fields)

    # -- constructors --------------------------------------------------------

    @classmethod
    def of(cls, **name_types: FieldType) -> "Schema":
        """Build a schema from keyword arguments.

        >>> Schema.of(id=FieldType.INT, text=FieldType.STRING)
        """
        return cls(Field(name, ftype) for name, ftype in name_types.items())

    # -- lookups --------------------------------------------------------------

    @property
    def names(self) -> List[str]:
        return list(self._index)

    def __len__(self) -> int:
        return len(self.fields)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def index_of(self, name: str) -> int:
        """Position of field ``name``; raises :class:`FieldNotFound`."""
        try:
            return self._index[name]
        except KeyError:
            raise FieldNotFound(
                f"field {name!r} not in schema {self.names}"
            ) from None

    def field(self, name: str) -> Field:
        return self.fields[self.index_of(name)]

    # -- derivation -------------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        """Schema restricted to ``names`` (in the given order)."""
        return Schema(self.field(name) for name in names)

    def concat(self, other: "Schema", suffix: str = "_right") -> "Schema":
        """Concatenate two schemas, suffixing colliding right names.

        Mirrors what dataflow engines (and ``pandas.merge``) do when a
        join's two inputs share column names.
        """
        fields = list(self.fields)
        for field in other.fields:
            name = field.name
            if name in self._index:
                name = name + suffix
                if name in self._index or any(f.name == name for f in fields):
                    raise DuplicateField(
                        f"collision for {field.name!r} even after suffixing"
                    )
            fields.append(Field(name, field.ftype))
        return Schema(fields)

    def validate(self, values: Sequence[Any]) -> None:
        """Check arity and per-field types of a row of values."""
        if len(values) != self._arity:
            raise TypeMismatch(
                f"expected {len(self.fields)} values for schema {self.names}, "
                f"got {len(values)}"
            )
        position = 0
        for check in self._checkers:
            value = values[position]
            position += 1
            if check is None or value is None or check(value):
                continue
            field = self.fields[position - 1]
            raise TypeMismatch(
                f"field {field.name!r} ({field.ftype.value}) rejects "
                f"{value!r} ({type(value).__name__})"
            )

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}:{f.ftype.value}" for f in self.fields)
        return f"Schema({inner})"


#: ``fields`` -> what the walk charges a schema built from them.
_SCHEMA_BYTES: Dict[Tuple[Field, ...], int] = {}


def _schema_bytes(schema: Schema) -> int:
    """What ``estimate_bytes`` charges for an exact-type :class:`Schema`.

    The structural walk over the four attributes ``Schema.__init__``
    sets and over nothing else: every stored row pays its schema's
    size, so an attribute added later must not silently move every
    simulated timing.  The other three attributes derive from
    ``fields``, so the walk runs once per distinct field tuple; the
    memo lives here, where the walk cannot see it.
    """
    size = _SCHEMA_BYTES.get(schema.fields)
    if size is None:
        state = {
            name: getattr(schema, name)
            for name in ("fields", "_index", "_checkers", "_arity")
        }
        size = _SCHEMA_BYTES[schema.fields] = _OBJECT_OVERHEAD + estimate_bytes(state)
    return size
