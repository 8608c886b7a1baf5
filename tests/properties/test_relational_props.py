"""Property-based tests for the relational substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import (
    FieldType,
    Schema,
    StreamingHashJoin,
    Table,
    Tuple,
    hash_join,
)

KEYS = st.integers(min_value=0, max_value=8)  # small domain -> collisions
LEFT_SCHEMA = Schema.of(k=FieldType.INT, a=FieldType.INT)
RIGHT_SCHEMA = Schema.of(k=FieldType.INT, b=FieldType.INT)

left_tables = st.lists(
    st.tuples(KEYS, st.integers()), max_size=30
).map(lambda rows: Table.from_rows(LEFT_SCHEMA, [list(r) for r in rows]))
right_tables = st.lists(
    st.tuples(KEYS, st.integers()), max_size=30
).map(lambda rows: Table.from_rows(RIGHT_SCHEMA, [list(r) for r in rows]))


def nested_loop_join(left, right):
    """Oracle: brute-force inner join."""
    out = []
    for l in left:
        for r in right:
            if l["k"] == r["k"]:
                out.append((l["k"], l["a"], r["k"], r["b"]))
    return sorted(out)


@given(left_tables, right_tables)
def test_hash_join_equals_nested_loop(left, right):
    joined = hash_join(left, right, "k", "k")
    got = sorted(tuple(row.values) for row in joined)
    assert got == nested_loop_join(left, right)


@given(left_tables, right_tables)
def test_left_join_covers_all_left_rows(left, right):
    joined = hash_join(left, right, "k", "k", how="left")
    # Every left row appears at least once.
    left_keys = sorted((row["k"], row["a"]) for row in left)
    out_keys = sorted(set((row["k"], row["a"]) for row in joined))
    assert sorted(set(left_keys)) == out_keys


@given(left_tables, right_tables)
def test_semi_plus_anti_partition_left(left, right):
    semi = hash_join(left, right, "k", "k", how="left_semi")
    anti = hash_join(left, right, "k", "k", how="left_anti")
    assert len(semi) + len(anti) == len(left)
    right_keys = set(right.column("k"))
    assert all(row["k"] in right_keys for row in semi)
    assert all(row["k"] not in right_keys for row in anti)


@given(left_tables, right_tables)
@settings(max_examples=50)
def test_streaming_join_equals_batch_join(left, right):
    join = StreamingHashJoin(RIGHT_SCHEMA, LEFT_SCHEMA, "k", "k")
    for row in right:
        join.add_build_tuple(row)
    join.finish_build()
    streamed = sorted(
        tuple(out.values) for row in left for out in join.probe(row)
    )
    batch = sorted(
        tuple(row.values) for row in hash_join(left, right, "k", "k")
    )
    assert streamed == batch


@given(left_tables)
def test_filter_then_count_consistent(table):
    predicate = lambda row: row["k"] % 2 == 0
    kept = table.filter(predicate)
    assert len(kept) == sum(1 for row in table if predicate(row))
    assert all(predicate(row) for row in kept)


@given(left_tables)
def test_sort_is_permutation_and_ordered(table):
    ordered = table.sort_by("k")
    assert sorted(tuple(r.values) for r in table) == sorted(
        tuple(r.values) for r in ordered
    )
    keys = ordered.column("k")
    assert keys == sorted(keys)


@given(left_tables)
def test_projection_preserves_row_count(table):
    projected = table.project(["a"])
    assert len(projected) == len(table)
    assert projected.column("a") == table.column("a")


@given(st.dictionaries(st.sampled_from(["k", "a"]), st.integers(), max_size=2))
def test_tuple_from_dict_roundtrip(mapping):
    row = Tuple.from_dict(LEFT_SCHEMA, mapping)
    as_dict = row.as_dict()
    for name in LEFT_SCHEMA.names:
        assert as_dict[name] == mapping.get(name)
