"""Property: the sizing kernel returns the recursive walk's integers.

``estimate_bytes`` prices rows, containers and plain-state objects
without re-walking them, and join outputs are sized from their two
sides; every simulated timing hangs off those integers, so they have to
come out *equal* to what the one-call-per-value walk returned — kept
here, frozen, as the oracle (``tests/support/sizing_oracle.py``) — and
must not depend on which caches happen to be warm.  ``nested`` holds
every shape the kernel special-cases and the unusual ones beside them
(instance-level and computed ``nbytes``, ``__slots__``, dict
subclasses, enum members, numpy arrays and scalars).
"""

import enum
import weakref
from dataclasses import dataclass

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Sized, estimate_bytes
from repro.gen import random_spec
from repro.paradigm import PARADIGM_SCRIPT, run_spec
from repro.relational import (
    Field,
    FieldType,
    Schema,
    StreamingHashJoin,
    Table,
    Tuple,
    hash_join,
)
from repro.storage import (
    AnnotationDocument,
    EntityAnnotation,
    EventAnnotation,
    Sentence,
)
from tests.support.sizing_oracle import walk_bytes


class SubRow(Tuple):
    pass


class SubSchema(Schema):
    pass


class SubList(list):
    pass


class SubDict(dict):
    pass


@dataclass(frozen=True)
class Frozen:
    name: str
    payload: object


@dataclass
class Mutable:
    count: int
    payload: object


class Plain:
    """Attributes set per instance; none, one or several."""

    def __init__(self, **state):
        self.__dict__.update(state)


class Slotted:
    __slots__ = ("first", "second")

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)


class PropertyNbytes:
    """A class-level ``nbytes`` that may or may not be an int."""

    def __init__(self, nbytes, payload):
        self._nbytes = nbytes
        self.payload = payload

    @property
    def nbytes(self):
        return self._nbytes


class Blob(Sized):
    """Knows its own size, which is not its state's."""

    def __init__(self, tag):
        self.tag = tag

    def payload_bytes(self):
        return 1000 + len(self.tag)


class Computed:
    """``nbytes`` answered by ``__getattr__``, not found on the class."""

    def __init__(self, payload):
        self.payload = payload

    def __getattr__(self, name):
        if name == "nbytes":
            return 3
        raise AttributeError(name)


class Colour(enum.Enum):
    RED = "red"
    GREEN = 2


numpy_values = st.one_of(
    st.lists(st.floats(allow_nan=False), max_size=6).map(np.array),
    st.lists(st.integers(-(2**31), 2**31), max_size=6).map(np.array),
    st.integers(-(2**40), 2**40).map(np.int64),
    st.floats(allow_nan=False).map(np.float64),
    st.booleans().map(np.bool_),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=9),
    st.binary(max_size=9),
    st.sampled_from(Colour),
    numpy_values,
)

words = st.text(max_size=6)
offsets = st.tuples(st.integers(0, 99), st.integers(0, 99)).map(sorted)
entities = st.builds(
    lambda key, kind, span, text: EntityAnnotation("T" + key, kind, *span, text),
    words, words, offsets, words,
)
events = st.builds(
    lambda key, kind, ref, arguments: EventAnnotation(
        "E" + key, kind, "T" + ref, tuple(arguments)
    ),
    words, words, words, st.lists(st.tuples(words, words), max_size=3),
)
blobs = st.builds(Blob, st.text(max_size=4))
#: A proxy answers ``isinstance`` for its referent; the list keeps it alive.
proxies = st.one_of(blobs, st.builds(Plain, a=st.integers())).map(
    lambda referent: [referent, weakref.proxy(referent)]
)

annotations = st.one_of(
    entities,
    events,
    st.builds(
        AnnotationDocument,
        words,
        st.lists(entities, max_size=4),
        st.lists(events, max_size=3),
    ),
    st.builds(
        lambda doc_id, index, span, text: Sentence(doc_id, index, *span, text),
        words, st.integers(0, 40), offsets, words,
    ),
)


numbers = st.integers(-(2**40), 2**40) | st.floats(allow_nan=False)


def flat(elements):
    """Token lists and vectors."""
    items = st.lists(elements, max_size=14)
    return items | items.map(tuple)


flats = st.one_of(
    flat(st.text(max_size=6)),
    flat(numbers),
    flat(numbers | st.booleans()),
    flat(numbers | st.none()),
    flat(st.text(max_size=6) | st.binary(max_size=6)),
    st.sets(st.text(max_size=6) | numbers, max_size=8),
    st.frozensets(st.text(max_size=6) | numbers, max_size=8),
)


def containers(inner):
    items = st.lists(inner, max_size=5)
    mapping = st.dictionaries(st.text(max_size=4), inner, max_size=4)
    return st.one_of(
        items,
        items.map(tuple),
        items.map(SubList),
        mapping,
        mapping.map(SubDict),
        st.builds(Frozen, st.text(max_size=4), inner),
        st.builds(Mutable, st.integers(-9, 9), inner),
        st.builds(lambda state: Plain(**state), st.dictionaries(
            st.sampled_from(["a", "b", "nbytes"]), inner, max_size=3
        )),
        st.builds(lambda n, a: Plain(nbytes=n, a=a), st.integers(0, 99) | inner, inner),
        st.lists(inner, max_size=2).map(lambda values: Slotted(*values)),
        st.builds(PropertyNbytes, st.integers(0, 99) | inner, inner),
        st.builds(Computed, inner),
    )


nested = st.recursive(
    scalars | flats | annotations | blobs | proxies, containers, max_leaves=12
)

COLUMN_VALUES = {
    FieldType.INT: st.none() | st.integers(-(2**40), 2**40),
    FieldType.FLOAT: st.none() | st.floats(allow_nan=False),
    FieldType.STRING: st.none() | st.text(max_size=9),
    FieldType.BOOL: st.none() | st.booleans(),
    FieldType.ANY: nested,  # token lists, spans, opaque payloads
}

column_lists = st.lists(
    st.tuples(st.text("abcxyz_", min_size=1, max_size=6), st.sampled_from(FieldType)),
    max_size=4,
    unique_by=lambda column: column[0],
)


@st.composite
def row_lists(draw):
    """Rows over one to three schemas — two of them equal but distinct
    objects, one possibly a subclass — in runs and interleaved; fresh
    objects every draw, so no payload is cached yet."""
    columns = draw(st.lists(column_lists, min_size=1, max_size=2))
    schemas = [Schema(Field(name, ftype) for name, ftype in cols) for cols in columns]
    schemas.append(draw(st.sampled_from([Schema, SubSchema]))(schemas[0].fields))
    rows = []
    for index in draw(st.lists(st.integers(0, len(schemas) - 1), max_size=14)):
        schema = schemas[index]
        values = [draw(COLUMN_VALUES[field.ftype]) for field in schema.fields]
        row_type = SubRow if draw(st.integers(0, 9)) == 0 else Tuple
        rows.append(row_type(schema, values))
    return rows


@st.composite
def payloads(draw):
    """What a script hands the object store: rows, rows among scalars
    and containers, keyed groups of rows."""
    rows = draw(row_lists())
    shape = draw(st.sampled_from(["rows", "tuple", "mixed", "keyed", "value"]))
    if shape == "rows":
        return rows
    if shape == "tuple":
        return tuple(rows)
    if shape == "mixed":
        return draw(st.permutations(rows + draw(st.lists(nested, max_size=4))))
    if shape == "keyed":
        return {"left": rows[: len(rows) // 2], "right": (len(rows), rows)}
    return draw(nested)


def assert_sized_as_walked(obj):
    expected = walk_bytes(obj)
    assert estimate_bytes(obj) == expected  # fills the payload caches
    assert estimate_bytes(obj) == expected  # reads them
    assert walk_bytes(obj) == expected


@settings(max_examples=60, deadline=None)
@given(payload=payloads())
def test_kernel_equals_the_recursive_walk(payload):
    assert_sized_as_walked(payload)


@settings(max_examples=60, deadline=None)
@given(items=flats)
@example(items=[1, 2.0, True])  # a bool is not a number
@example(items=(1.0, 2, None))
@example(items=["a", "b", b"j"])
def test_flat_containers_are_sized_as_walked(items):
    assert_sized_as_walked(items)


@settings(max_examples=60, deadline=None)
@given(rows=row_lists(), warm=st.booleans())
def test_size_does_not_depend_on_what_is_cached(rows, warm):
    """One row, its schema and the whole list cost the same whether the
    rows' ``payload_bytes()`` and the schema memo were filled before the
    first sizing or never."""
    expected = [walk_bytes(row) for row in rows]
    if warm:
        for row in rows:
            row.payload_bytes()
            estimate_bytes(row.schema)
    assert_sized_as_walked(rows)
    assert [estimate_bytes(row) for row in rows] == expected
    for row in rows:
        assert_sized_as_walked(row.schema)
        assert row.payload_bytes() == walk_bytes(row.values)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_generated_sink_tables_are_sized_as_walked(seed):
    """Sink tables of ``repro.gen`` specs: what the corpus workloads store."""
    for table in run_spec(random_spec(seed), PARADIGM_SCRIPT).tables.values():
        assert_sized_as_walked(table)
        assert_sized_as_walked(table.rows)
        assert_sized_as_walked([row.values for row in table.rows])


def test_a_value_mutated_after_the_first_sizing_keeps_its_first_size():
    """The kernel's precondition, as behaviour: a row's payload is sized
    once, so an ANY-typed list changed in place afterwards is not
    re-priced (the walk re-read it at every ``put``).  No task does this."""
    tokens = ["a", "b"]
    row = Tuple(Schema.of(tokens=FieldType.ANY), [tokens])
    first = estimate_bytes(row)
    assert first == walk_bytes(row)
    tokens.append("c" * 100)
    assert estimate_bytes(row) == estimate_bytes([row]) - 24 == first
    assert walk_bytes(row) == first + 8 + 16 + 100


@st.composite
def join_sides(draw):
    """Two fresh tables sharing an INT key ``k`` (probe keys may miss the
    build side), plus other columns that never collide."""

    def side(names):
        columns = draw(st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(FieldType)),
            max_size=3, unique_by=lambda column: column[0],
        ))
        schema = Schema([Field("k", FieldType.INT)] + [Field(*c) for c in columns])
        rows = []
        for key in draw(st.lists(st.integers(0, 4) | st.none(), max_size=8)):
            values = [key] + [draw(COLUMN_VALUES[f.ftype]) for f in schema.fields[1:]]
            row_type = SubRow if draw(st.integers(0, 9)) == 0 else Tuple
            rows.append(row_type(schema, values))
        return Table(schema, rows)

    return side(["a", "b", "c"]), side(["x", "y", "z"])


def assert_sized_from_values(rows):
    for row in rows:
        assert row.payload_bytes() == walk_bytes(row.values)
        assert estimate_bytes(row) == walk_bytes(row)


@settings(max_examples=60, deadline=None)
@given(sides=join_sides(), warm=st.booleans())
def test_join_outputs_are_sized_as_walked(sides, warm):
    """Rows built from two sized rows (every join shape, ``concat``) cost
    what the walk charges their values, whether or not either side had
    been sized before the join."""
    probe, build = sides
    if warm:
        probe.payload_bytes()
        build.payload_bytes()
    for how in ("inner", "left"):
        join = StreamingHashJoin(build.schema, probe.schema, "k", "k", how=how)
        for row in build.rows:
            join.add_build_tuple(row)
        join.finish_build()
        assert_sized_from_values(out for row in probe.rows for out in join.probe(row))
    for how in ("inner", "left"):
        assert_sized_from_values(hash_join(probe, build, "k", "k", how=how).rows)
    assert_sized_from_values(
        left.concat(right) for left in probe.rows[:3] for right in build.rows[:3]
    )
