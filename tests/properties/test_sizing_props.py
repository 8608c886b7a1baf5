"""Property: the sizing kernel returns the recursive walk's integers.

``estimate_bytes`` prices rows and exact ``list`` / ``tuple`` containers
without re-walking them; every simulated timing hangs off those
integers, so they have to
come out *equal* to what the one-call-per-value walk returned — kept
here, frozen, as the oracle (``tests/support/sizing_oracle.py``) — and
must not depend on which caches happen to be warm.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import estimate_bytes
from repro.gen import random_spec
from repro.paradigm import PARADIGM_SCRIPT, run_spec
from repro.relational import Field, FieldType, Schema, Tuple
from tests.support.sizing_oracle import walk_bytes


class SubRow(Tuple):
    pass


class SubSchema(Schema):
    pass


class SubList(list):
    pass


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=9),
    st.binary(max_size=9),
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
)


def containers(inner):
    items = st.lists(inner, max_size=5)
    return st.one_of(
        items,
        items.map(tuple),
        items.map(SubList),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    )


nested = st.recursive(scalars | flats, containers, max_leaves=12)

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
