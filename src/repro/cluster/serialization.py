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


#: A row's own share of the walk over its three slots: the object, three
#: entries, and the 8 bytes of the ``_nbytes`` int (cached or not).
_ROW_OVERHEAD = _OBJECT_OVERHEAD + 3 * _ENTRY_OVERHEAD + 8

#: How :func:`estimate_bytes` prices a value of each exact type.
_SEQ, _STATE, _DICT, _NBYTES, _LEN, _SIZED, _SCHEMA, _WALK = range(-8, 0)

#: Exact type -> its fixed size (``>= 0``) or one of the codes above.
#: Other types are classified from their first instance (``_classify``)
#: and added here, so the ``isinstance`` chain runs once per type.
_KINDS = {
    type(None): 4,
    bool: 4,
    int: 8,
    float: 8,
    str: _LEN,
    bytes: _LEN,
    bytearray: _LEN,
    list: _SEQ,
    tuple: _SEQ,
    set: _SEQ,
    frozenset: _SEQ,
    dict: _DICT,
}

#: The exact row type, priced without the slot walk, and the schema's
#: sizer.  :mod:`repro.relational.tup` registers them, with the exact
#: schema type, on import: the registration points upward only, this
#: package imports nothing above it.
_ROW = _schema_bytes = None


def _register_row_types(row, schema, schema_bytes) -> None:
    global _ROW, _schema_bytes
    _ROW, _schema_bytes = row, schema_bytes
    _KINDS[schema] = _SCHEMA


#: The C defaults of the attribute hooks (``object.__getattribute__``,
#: ``object.__class__``): a type that keeps them looks ``nbytes`` and
#: ``__dict__`` up the ordinary way on every instance.
_PLAIN_HOOKS = (type(object.__getattribute__), type(vars(object)["__class__"]))


def _plain_lookup(cls: type) -> bool:
    for name in ("__getattribute__", "__getattr__", "__class__"):
        for klass in cls.__mro__:
            if name in vars(klass):
                if type(vars(klass)[name]) not in _PLAIN_HOOKS:
                    return False
                break
    return True


def _classify(obj: Any) -> int:
    """Record how values of ``type(obj)`` are priced, and return it.

    Only what the type decides for every instance is recorded: the
    ``Sized`` / number / string tests; a class-level ``nbytes`` (each
    value still reads its own, and one that is not an int takes the
    walk); plain state, an instance ``__dict__`` on a type that is no
    container subclass (each value still checks its own ``__dict__``
    for an ``nbytes`` and for emptiness).  Proxies and types that hook
    attribute lookup take the walk.  A type is classified once, and the
    table keeps it alive: a class given an ``nbytes`` or a lookup hook
    after its first sizing keeps its first kind.
    """
    cls = type(obj)
    kind = _WALK
    if obj.__class__ is cls and _plain_lookup(cls):
        if issubclass(cls, Sized):
            kind = _SIZED
        elif issubclass(cls, bool):
            kind = 4
        elif issubclass(cls, (int, float)):
            kind = 8
        elif issubclass(cls, (str, bytes, bytearray)):
            kind = _LEN
        elif any("nbytes" in vars(klass) for klass in cls.__mro__):
            kind = _NBYTES
        elif not issubclass(cls, (dict, list, tuple, set, frozenset)) and (
            type(getattr(obj, "__dict__", None)) is dict
        ):
            kind = _STATE
    _KINDS[cls] = kind
    return kind


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

    One loop prices a whole value to the integer that recursive walk
    returns, with no call per nested value: exact ``list`` / ``tuple``
    / ``set`` / ``dict`` containers and plain-state objects (the DICE
    annotation dataclasses) queue their contents, and strings, scalars,
    ``nbytes`` arrays and rows are added in place.  An exact-type row is
    ``48 + size(schema) + payload_bytes()`` (the schema sized over its
    four construction-time attributes only and asked for once per run
    of same-schema rows; the payload cached on the row).  What the type
    table does not recognise — container subclasses, slotted or empty
    objects, proxies, types that hook attribute lookup — keeps the
    general walk.

    Precondition: a row's ``values`` are not mutated after construction.
    The row caches its payload size on first use (a join output takes
    it from its two sides), so an ANY-typed list changed in place
    afterwards keeps its first size at every later ``put`` / ``adopt``.
    """
    if type(obj) is tuple or type(obj) is list:  # a row's values, a put
        total = _OBJECT_OVERHEAD + _ENTRY_OVERHEAD * len(obj)
        pending = [obj]
    else:
        total = 0
        pending = [(obj,)]
    schema = row_size = None
    while pending:
        for item in pending.pop():
            cls = type(item)
            if cls is str:
                total += _OBJECT_OVERHEAD + len(item)
                continue
            if cls is _ROW:
                if item.schema is not schema:
                    schema = item.schema
                    row_size = _ROW_OVERHEAD + estimate_bytes(schema)
                total += row_size + item.payload_bytes()
                continue
            kind = _KINDS.get(cls)
            if kind is None:
                kind = _classify(item)
            if kind >= 0:
                total += kind
            elif kind == _SEQ:
                total += _OBJECT_OVERHEAD + _ENTRY_OVERHEAD * len(item)
                pending.append(item)
            elif kind == _STATE:
                state = item.__dict__
                if state and "nbytes" not in state:
                    total += 2 * _OBJECT_OVERHEAD + _ENTRY_OVERHEAD * len(state)
                    pending.append(state)
                    pending.append(state.values())
                else:
                    total += _walk(item)
            elif kind == _DICT:
                total += _OBJECT_OVERHEAD + _ENTRY_OVERHEAD * len(item)
                pending.append(item)
                pending.append(item.values())
            elif kind == _NBYTES:
                nbytes = getattr(item, "nbytes", None)
                if isinstance(nbytes, int):
                    total += _OBJECT_OVERHEAD + nbytes
                else:
                    total += _walk(item)
            elif kind == _LEN:
                total += _OBJECT_OVERHEAD + len(item)
            elif kind == _SIZED:
                total += item.payload_bytes()
            elif kind == _SCHEMA:
                total += _schema_bytes(item)
            else:
                total += _walk(item)
    return total


def _walk(obj: Any) -> int:
    """The general structural walk, for what the type table leaves out."""
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
