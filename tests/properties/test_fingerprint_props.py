"""Property: the fingerprint fast path returns the oracle's digests.

``fingerprint_value`` digests exact-type atoms with one ``blake2b``
call and exact tuples with one list comprehension.  Every cache key
(both engines, every layer) is built from these digests, so they have
to come out *equal* to what the general path returned — kept here,
frozen, as the oracle (``tests/support/fingerprint_oracle.py``) — for
the values where the two could part: ``-0.0`` and ``0.0``, ``nan``,
``True`` and ``1``, surrogate strings, subclasses of atoms and tuples,
and containers nested past the depth limit.
"""

from collections import namedtuple
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.cache.fingerprint as fingerprint
from repro.cache import cached
from repro.cache.fingerprint import _MAX_DEPTH, combine, fingerprint_value
from repro.cluster import build_cluster
from repro.relational import FieldType, Schema, Table, Tuple
from repro.sim import Environment
from repro.workflow import Workflow, WorkflowController, run_workflow
from repro.workflow.operators import SinkOperator, TableSource
from tests.support import fingerprint_oracle as oracle


class SubInt(int):
    pass


class SubFloat(float):
    pass


class SubStr(str):
    pass


class SubTuple(tuple):
    pass


Pair = namedtuple("Pair", "left right")

SURROGATES = st.lists(
    st.sampled_from(["\ud800", "\udfff", "a", "\x00", "é", "\\", " "]), max_size=6
).map("".join)

atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**90), 2**90),
    st.sampled_from([0, 1, -1, 2**80, -(2**80), True, False]),
    st.floats(),  # nan, ±inf, ±0.0 included
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-320]),
    st.text(max_size=8),
    SURROGATES,
    st.binary(max_size=8),
    st.integers(-5, 5).map(SubInt),
    st.floats(allow_nan=False).map(SubFloat),
    st.text(max_size=4).map(SubStr),
)


def containers(inner):
    items = st.lists(inner, max_size=5)
    return st.one_of(
        items,
        items.map(tuple),
        items.map(SubTuple),
        st.tuples(inner, inner).map(lambda pair: Pair(*pair)),
        st.dictionaries(st.text(max_size=3) | st.integers(0, 9), inner, max_size=4),
        st.frozensets(atoms, max_size=4),
        st.sets(st.integers(-9, 9) | st.text(max_size=2), max_size=4),
    )


nested = st.recursive(atoms, containers, max_leaves=16)


@st.composite
def deep(draw):
    """A value wrapped in exact tuples and lists to around the depth limit."""
    value = draw(atoms | nested)
    for wrap in draw(st.lists(st.sampled_from([tuple, list]), max_size=_MAX_DEPTH + 4)):
        value = wrap([value, draw(atoms)])
    return value


def nest(depth, wrap=tuple, leaf=1):
    value = leaf
    for _ in range(depth):
        value = wrap([value])
    return value


SCHEMA = Schema.of(id=FieldType.INT, name=FieldType.STRING, score=FieldType.FLOAT)


@st.composite
def row_lists(draw):
    """What the workflow engine hashes: the values of a batch of rows."""
    rows = draw(
        st.lists(
            st.tuples(
                st.none() | st.integers(-(2**40), 2**40),
                st.none() | st.text(max_size=6) | SURROGATES,
                st.none() | st.floats(),
            ),
            max_size=12,
        )
    )
    return [Tuple(SCHEMA, list(values)).values for values in rows]


def assert_oracle_digest(value):
    assert fingerprint_value(value) == oracle.fingerprint_value(value)


@settings(max_examples=300, deadline=None)
@given(value=atoms)
@example(value=-0.0)
@example(value=float("nan"))
@example(value=True)
@example(value=1)
@example(value=2**80)
@example(value="\ud800x")
@example(value=b"\x00\xff")
def test_atoms_digest_as_the_oracle(value):
    assert_oracle_digest(value)


@settings(max_examples=200, deadline=None)
@given(value=nested)
def test_containers_digest_as_the_oracle(value):
    assert_oracle_digest(value)


@settings(max_examples=200, deadline=None)
@given(value=deep())
@example(value=nest(_MAX_DEPTH - 1))
@example(value=nest(_MAX_DEPTH))
@example(value=nest(_MAX_DEPTH + 1))
@example(value=[nest(_MAX_DEPTH)])
@example(value=nest(_MAX_DEPTH, wrap=list))
@example(value=nest(_MAX_DEPTH + 1, wrap=list, leaf=(1,)))
def test_nesting_past_the_depth_limit_digests_as_the_oracle(value):
    assert_oracle_digest(value)


@settings(max_examples=150, deadline=None)
@given(values=row_lists())
def test_row_value_lists_digest_as_the_oracle(values):
    assert_oracle_digest(values)
    assert_oracle_digest(tuple(values))


combine_parts = st.lists(
    st.one_of(
        st.text(max_size=6),
        SURROGATES,
        st.text(alphabet="\x00a", max_size=4),
        st.integers(),
        st.floats(),
        st.none(),
        st.booleans(),
        st.binary(max_size=4),
        st.integers(-5, 5).map(SubInt),
        st.text(max_size=4).map(SubStr),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(parts=combine_parts)
@example(parts=[])
@example(parts=[""])
@example(parts=["a\x00", "b"])
@example(parts=["a", "\x00b"])
@example(parts=["\ud800", "\udc00"])
@example(parts=["\ud83d\ude00"])
def test_combine_is_the_per_part_update_loop(parts):
    """One hash call over the joined text, the same bytes as the frozen
    loop of two ``update`` calls per part; no parts hash no bytes."""
    assert combine(*parts) == oracle.combine(*parts)


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.text(max_size=4) | SURROGATES | st.integers(0, 3), max_size=12),
    cap=st.integers(1, 4),
)
def test_the_str_atom_memo_never_changes_a_digest(values, cap):
    """Memo on (warm, filling to its cap and emptying) or off (cleared
    before every call): every digest is the oracle's."""
    values = values + values + [values]
    want = [oracle.fingerprint_value(value) for value in values]
    with mock.patch.object(fingerprint, "_STR_DIGESTS", {}), mock.patch.object(
        fingerprint, "_STR_DIGESTS_CAP", cap
    ):
        warm = []
        for value in values:
            warm.append(fingerprint_value(value))
            assert len(fingerprint._STR_DIGESTS) <= cap
        cold = []
        for value in values:
            fingerprint._STR_DIGESTS.clear()
            cold.append(fingerprint_value(value))
    assert warm == want
    assert cold == want


def test_distinct_atoms_keep_distinct_digests():
    """The fast path still separates what the general path separated."""
    digests = {
        fingerprint_value(v)
        for v in (0, 0.0, -0.0, False, None, "0", b"0", "None", (0,), [0])
    }
    assert len(digests) == 10


def sink_lookups(monkeypatch=None):
    """Keys a cold cache sees for scan → sink over rows holding lists."""
    schema = Schema.of(id=FieldType.INT, tokens=FieldType.ANY)
    table = Table.from_rows(schema, [[i, ["tok"] * (i % 3)] for i in range(150)])
    wf = Workflow("mutated-after-flush")
    scan = wf.add_operator(TableSource("scan", table))
    sink = wf.add_operator(SinkOperator("out"))
    wf.link(scan, sink)
    keys = []
    with cached("on") as cache:
        lookup = cache.lookup

        def recording(fingerprint, tracer=None):
            keys.append(fingerprint)
            return lookup(fingerprint, tracer=tracer)

        cache.lookup = recording
        result = run_workflow(build_cluster(Environment()), wf)
    return keys, result.table().rows


def test_a_value_mutated_after_flush_is_keyed_by_its_content_at_flush(monkeypatch):
    """The engine's precondition, as behaviour: a batch is hashed once,
    when its producer flushes it, so an ANY-typed list changed in place
    before the consumer takes the batch does not change the consumer's
    key (the consumer used to re-hash what it received).  No operator
    does this."""
    clean_keys, clean_rows = sink_lookups()
    consume = WorkflowController._consume_batch

    def mutate_then_consume(self, instance, port, port_number, message, tuple_cost):
        for row in message.tuples:
            row["tokens"].append("late")
        return consume(self, instance, port, port_number, message, tuple_cost)

    monkeypatch.setattr(WorkflowController, "_consume_batch", mutate_then_consume)
    mutated_keys, mutated_rows = sink_lookups()
    assert mutated_rows != clean_rows  # the mutation did reach the sink
    assert mutated_keys == clean_keys
