"""Payload sizing and serialization cost models.

The engines never serialize real bytes — payloads stay live Python
objects — but every runtime boundary (object store, inter-operator
channel, network hop) charges virtual time proportional to an estimated
payload size.  This module provides:

* :func:`estimate_bytes` — a deterministic structural size estimator;
* :class:`Codec` — named encode/decode throughput pairs built from
  :class:`repro.config.SerializationConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.config import SerializationConfig

__all__ = ["estimate_bytes", "Codec", "make_codecs", "Sized", "record_codec"]

#: Flat overhead charged for every boxed Python object.
_OBJECT_OVERHEAD = 16
#: Overhead per container entry (pointer + bookkeeping).
_ENTRY_OVERHEAD = 8


class Sized:
    """Mixin for objects that know their own payload size.

    Classes that carry large or non-structural payloads (e.g. a model
    with a parameter blob) implement :meth:`payload_bytes` and the
    estimator trusts them.
    """

    def payload_bytes(self) -> int:
        raise NotImplementedError


#: Exact-type dispatch for the scalar cases — the bulk of calls on the
#: per-row engine paths.  Exact types cannot be :class:`Sized`
#: subclasses, so the shortcut returns the same sizes as the
#: isinstance chain below (which still handles subclasses).
_SCALAR_SIZES = {type(None): 4, bool: 4, int: 8, float: 8}

#: A row's own share of the walk over its three slots: the object, three
#: entries, and the 8 bytes of the ``_nbytes`` int (cached or not).
_ROW_OVERHEAD = _OBJECT_OVERHEAD + 3 * _ENTRY_OVERHEAD + 8

#: The exact row and schema types :func:`estimate_bytes` prices without
#: the slot walk, and the schema's sizer.  :mod:`repro.relational.tup`
#: registers them on import: the registration points upward only, this
#: package imports nothing above it.
_ROW = _SCHEMA = _schema_bytes = None


def _register_row_types(row, schema, schema_bytes) -> None:
    global _ROW, _SCHEMA, _schema_bytes
    _ROW, _SCHEMA, _schema_bytes = row, schema, schema_bytes


def estimate_bytes(obj: Any) -> int:
    """Estimate the serialized size of ``obj`` in bytes.

    The estimate is structural and deterministic: scalars, strings,
    bytes, containers and :class:`Sized` objects cost by shape and
    content length alone.  Any other object costs a walk over its
    ``__dict__`` / ``__slots__``, and that walk does reach interpreter
    internals: a relational row holds its ``Schema``, whose fields hold
    ``FieldType`` enum members (sized by the enum machinery's
    ``__dict__``) and whose checkers are function objects.  Those bytes
    are counted once **per row** — 939 of the 1045 bytes of a two-field
    row on CPython 3.11 — and that is the pinned cost model behind
    Fig 13d and every ``SEED_TIMINGS`` float, not a bug to fix:
    ``tests/cluster/test_serialization.py`` pins the three integers so
    an interpreter upgrade fails there first.

    Two shapes carry the engines' traffic and are priced to the same
    integer the walk returns without re-walking: an exact-type row is
    ``48 + size(schema) + payload_bytes()`` (the schema sized over its
    four construction-time attributes only and asked for once per run
    of same-schema rows; the payload cached on the row), and an exact
    ``list`` / ``tuple`` takes one loop that only recurses for nested
    values.  Subclasses and everything else keep the walk.

    Precondition: a row's ``values`` are not mutated after construction.
    The row caches its payload size on first use, so an ANY-typed list
    changed in place afterwards keeps its first size at every later
    ``put`` / ``adopt``.
    """
    cls = type(obj)
    size = _SCALAR_SIZES.get(cls)
    if size is not None:
        return size
    if cls is str:
        return _OBJECT_OVERHEAD + len(obj)
    if cls is list or cls is tuple:
        total = _OBJECT_OVERHEAD + _ENTRY_OVERHEAD * len(obj)
        schema = row_size = None
        for item in obj:
            kind = type(item)
            if kind is str:
                total += _OBJECT_OVERHEAD + len(item)
            elif kind is _ROW:
                if item.schema is not schema:
                    schema = item.schema
                    row_size = _ROW_OVERHEAD + estimate_bytes(schema)
                total += row_size + item.payload_bytes()
            else:
                size = _SCALAR_SIZES.get(kind)
                total += estimate_bytes(item) if size is None else size
        return total
    if cls is _ROW:
        return _ROW_OVERHEAD + estimate_bytes(obj.schema) + obj.payload_bytes()
    if cls is _SCHEMA:
        return _schema_bytes(obj)
    if isinstance(obj, Sized):
        return obj.payload_bytes()
    if isinstance(obj, bool):
        return 4
    if isinstance(obj, int):
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, str):
        return _OBJECT_OVERHEAD + len(obj)
    if isinstance(obj, (bytes, bytearray)):
        return _OBJECT_OVERHEAD + len(obj)
    # numpy arrays (and anything exposing .nbytes) without importing numpy
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return _OBJECT_OVERHEAD + nbytes
    if isinstance(obj, dict):
        total = _OBJECT_OVERHEAD
        for key, value in obj.items():
            total += _ENTRY_OVERHEAD + estimate_bytes(key) + estimate_bytes(value)
        return total
    if isinstance(obj, (list, tuple, set, frozenset)):
        total = _OBJECT_OVERHEAD
        for item in obj:
            total += _ENTRY_OVERHEAD + estimate_bytes(item)
        return total
    # Dataclass-like objects: size their __dict__ / __slots__ fields.
    state = getattr(obj, "__dict__", None)
    if state:
        return _OBJECT_OVERHEAD + estimate_bytes(state)
    slots = getattr(obj, "__slots__", None)
    if slots:
        total = _OBJECT_OVERHEAD
        for name in slots:
            if hasattr(obj, name):
                total += _ENTRY_OVERHEAD + estimate_bytes(getattr(obj, name))
        return total
    return _OBJECT_OVERHEAD


@dataclass(frozen=True)
class Codec:
    """A named serializer with encode/decode throughput.

    ``per_item_s`` is an additional per-tuple conversion cost; only the
    cross-language bridge pays it (each tuple is re-boxed between the
    Python and JVM object models, the dominant cost of mixed-language
    workflow edges).
    """

    name: str
    base_s: float
    bytes_per_s: float
    per_item_s: float = 0.0

    def encode_time(self, nbytes: int, items: int = 0) -> float:
        """Virtual seconds to serialize ``nbytes`` over ``items`` tuples."""
        if nbytes < 0:
            raise ValueError(f"negative payload size: {nbytes}")
        if items < 0:
            raise ValueError(f"negative item count: {items}")
        return self.base_s + nbytes / self.bytes_per_s + self.per_item_s * items

    def decode_time(self, nbytes: int, items: int = 0) -> float:
        """Virtual seconds to deserialize ``nbytes`` over ``items`` tuples.

        Decoding is modelled at the same throughput as encoding; the
        distinction is kept in the API so call sites read correctly.
        """
        return self.encode_time(nbytes, items)

    def round_trip_time(self, nbytes: int, items: int = 0) -> float:
        """Encode + decode, the cost of crossing one runtime boundary."""
        return self.encode_time(nbytes, items) + self.decode_time(nbytes, items)


@dataclass(frozen=True)
class CodecSuite:
    """The three boundary codecs used across the engines."""

    python: Codec
    jvm: Codec
    cross_language: Codec

    def for_boundary(self, producer_language: str, consumer_language: str) -> Codec:
        """Pick the codec for a producer→consumer language boundary.

        Same-language JVM edges use the JVM codec, same-language Python
        edges the Python codec, and mixed edges the (slower) cross-
        language bridge — this is the mechanism behind the paper's
        runtime-overhead discussion in Section III-D.
        """
        jvm = {"scala", "java"}
        if producer_language in jvm and consumer_language in jvm:
            return self.jvm
        if producer_language == "python" and consumer_language == "python":
            return self.python
        return self.cross_language


def record_codec(
    tracer, codec: Codec, direction: str, nbytes: int, items: int, seconds: float
) -> None:
    """Count one codec invocation into a tracer's metrics registry.

    Called by the engines wherever encode/decode time is charged
    (workflow channels, sink gathering); keeps per-codec byte and
    virtual-second totals so cross-language bridge costs (paper
    Table I) are directly queryable.  No-op under the null tracer.
    """
    if not tracer.enabled:
        return
    metrics = tracer.metrics
    metrics.counter("serialize.bytes", codec=codec.name, direction=direction).add(
        nbytes
    )
    metrics.counter("serialize.items", codec=codec.name, direction=direction).add(
        items
    )
    metrics.counter("serialize.seconds", codec=codec.name, direction=direction).add(
        seconds
    )
    metrics.counter("serialize.calls", codec=codec.name, direction=direction).inc()


def make_codecs(config: SerializationConfig) -> CodecSuite:
    """Build the codec suite from configuration constants."""
    return CodecSuite(
        python=Codec("python", config.base_s, config.python_bytes_per_s),
        jvm=Codec("jvm", config.base_s, config.jvm_bytes_per_s),
        cross_language=Codec(
            "cross-language",
            config.base_s,
            config.cross_language_bytes_per_s,
            per_item_s=config.cross_language_per_tuple_s,
        ),
    )
