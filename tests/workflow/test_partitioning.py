"""Tuple-routing contracts: repro.workflow.partitioning.

``partitioner_for`` is the one routing rule both engines take their
decision from; hash routing without a key is an error in both.

Co-locating hash-partition peers (the ``locality`` placement policy)
only works if routing itself is stable: the same key must map to the
same instance index on every run, process and Python version.
"""

import zlib

import pytest

from repro.cluster import build_cluster
from repro.errors import InvalidWorkflow
from repro.rayx.compile import ScriptPlan
from repro.relational import FieldType, Schema, Table, Tuple, column_greater
from repro.sim import Environment
from repro.workflow import Workflow, run_workflow
from repro.workflow.operators import (
    BUILD_PORT,
    PROBE_PORT,
    FilterOperator,
    HashJoinOperator,
    SinkOperator,
    TableSource,
)
from repro.workflow.partitioning import (
    BroadcastPartitioner,
    HashPartitioner,
    Partitioner,
    RoundRobinPartitioner,
    partitioner_for,
    stable_hash,
)

SCHEMA = Schema.of(id=FieldType.INT, name=FieldType.STRING)


def row(id_, name):
    return Tuple(SCHEMA, [id_, name])


# -- stable_hash -------------------------------------------------------------


def test_stable_hash_is_deterministic_and_unsalted():
    # CRC32 of repr: reproducible across processes, unlike builtin hash.
    for value in (42, "item-7", ("a", 1), None, 3.5):
        assert stable_hash(value) == stable_hash(value)
        assert stable_hash(value) == zlib.crc32(repr(value).encode("utf-8"))
        assert stable_hash(value) >= 0


def test_stable_hash_distinguishes_values():
    assert stable_hash("item-1") != stable_hash("item-2")


# -- HashPartitioner ---------------------------------------------------------


def test_hash_partitioner_routes_equal_keys_together():
    partitioner = HashPartitioner(4, key="name")
    first = partitioner.route(row(1, "alpha"))
    second = partitioner.route(row(2, "alpha"))
    assert first == second
    assert len(first) == 1
    assert 0 <= first[0] < 4


def test_hash_partitioner_is_stable_across_instances():
    # Two independent partitioners (e.g. on two producer instances)
    # must agree, or a keyed consumer would see a split key space.
    a, b = HashPartitioner(3, key="id"), HashPartitioner(3, key="id")
    for i in range(50):
        assert a.route(row(i, f"n{i}")) == b.route(row(i, f"n{i}"))


def test_hash_partitioner_matches_stable_hash_arithmetic():
    partitioner = HashPartitioner(5, key="name")
    t = row(9, "gamma")
    assert partitioner.route(t) == [stable_hash("gamma") % 5]


# -- BroadcastPartitioner ----------------------------------------------------


def test_broadcast_fans_out_to_every_instance():
    partitioner = BroadcastPartitioner(4)
    assert partitioner.route(row(1, "a")) == [0, 1, 2, 3]
    # Every tuple, not just the first.
    assert partitioner.route(row(2, "b")) == [0, 1, 2, 3]


# -- RoundRobinPartitioner ---------------------------------------------------


def test_round_robin_cycles_deterministically():
    partitioner = RoundRobinPartitioner(3)
    routes = [partitioner.route(row(i, "x"))[0] for i in range(7)]
    assert routes == [0, 1, 2, 0, 1, 2, 0]


# -- degenerate single consumer ----------------------------------------------


@pytest.mark.parametrize(
    "partitioner",
    [
        RoundRobinPartitioner(1),
        HashPartitioner(1, key="id"),
        BroadcastPartitioner(1),
    ],
    ids=["round_robin", "hash", "broadcast"],
)
def test_single_consumer_always_routes_to_zero(partitioner):
    for i in range(5):
        assert partitioner.route(row(i, f"n{i}")) == [0]


def test_partitioner_rejects_non_positive_consumers():
    for cls in (RoundRobinPartitioner, BroadcastPartitioner):
        with pytest.raises(ValueError):
            cls(0)
    with pytest.raises(ValueError):
        HashPartitioner(0, key="id")
    assert issubclass(HashPartitioner, Partitioner)


# -- the one routing rule ------------------------------------------------------


class _KeylessHash(FilterOperator):
    """Asks for hash routing but names no key to hash."""

    def partition_strategy(self, port):
        return "hash"


def keyless_workflow(num_workers):
    wf = Workflow("keyless")
    scan = wf.add_operator(
        TableSource("scan", Table.from_rows(SCHEMA, [[i, f"n{i}"] for i in range(6)]))
    )
    keep = wf.add_operator(
        _KeylessHash("keep", column_greater("id", 1), num_workers=num_workers)
    )
    wf.link(scan, keep)
    wf.link(keep, wf.add_operator(SinkOperator("out")))
    return wf


@pytest.mark.parametrize(
    "operator, port, workers, expected",
    [
        (HashJoinOperator("j", "id", "id", num_workers=3), 1, 3, (HashPartitioner, "id")),
        (
            HashJoinOperator("j", "id", "id", num_workers=3, broadcast_build=True),
            BUILD_PORT,
            3,
            (BroadcastPartitioner, None),
        ),
        (
            HashJoinOperator("j", "id", "id", num_workers=3, broadcast_build=True),
            PROBE_PORT,
            3,
            (RoundRobinPartitioner, None),
        ),
        (HashJoinOperator("j", "id", "id"), 0, 1, (RoundRobinPartitioner, None)),
        (_KeylessHash("k", column_greater("id", 1)), 0, 1, (RoundRobinPartitioner, None)),
    ],
    ids=["hash", "broadcast", "probe", "one-worker", "keyless-one-worker"],
)
def test_partitioner_for_decides_every_route(operator, port, workers, expected):
    partitioner = partitioner_for(operator, port, workers)
    assert (type(partitioner), getattr(partitioner, "key", None)) == expected
    assert partitioner.num_consumers == workers


def test_hash_routing_without_a_key_is_rejected_by_both_engines():
    with pytest.raises(InvalidWorkflow, match="without a partition key"):
        run_workflow(build_cluster(Environment()), keyless_workflow(2))
    with pytest.raises(InvalidWorkflow, match="without a partition key"):
        ScriptPlan(keyless_workflow(2)).run()
    # One worker takes every row, so it needs no key.
    run_workflow(build_cluster(Environment()), keyless_workflow(1))
    ScriptPlan(keyless_workflow(1)).run()
