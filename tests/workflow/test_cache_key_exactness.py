"""Exactness pin for the workflow engine's result-cache keys.

Every key the engine hands ``cache.lookup`` / ``cache.insert`` — batch,
channel and lifecycle-phase keys alike — is a rolling digest over the
content of every batch an instance produced or consumed.  One fixed
workflow runs cold and then warm under a tracer, a memory policy and
operator faults: a source scanned in batches of one size and flushed in
batches the auto-tuner sizes differently, a broadcast link into a
2-worker join, a 2-worker hash-partitioned group-by.  The sha256 of the
ordered ``(kind, key)`` sequence the cache receives is a literal
recorded before the engine carried a batch's content digest from the
producer to the consumer; any change to what is hashed, or where, must
reproduce it to the bit.  (``test_charge_exactness.py`` digests what a
hit *charges*, not which keys were asked for.)
"""

import hashlib
import json

from repro.cache import cached
from repro.cluster import build_cluster
from repro.config import ReproConfig, WorkflowConfig
from repro.faults import FaultEvent, FaultSchedule, faults_injected
from repro.mem import memory_managed
from repro.obs import tracing
from repro.relational import FieldType, Schema, Table
from repro.sim import Environment
from repro.workflow import Workflow, run_workflow
from repro.workflow.language import OperatorLanguage
from repro.workflow.operators import (
    AggregationFunction,
    GroupByOperator,
    HashJoinOperator,
    MapOperator,
    SinkOperator,
    TableSource,
)

DIGEST = "20f0b851987527289ea8d36c71780c27acd4212bd0c06888b0797efdff4e9a4a"

FACTS = Schema.of(id=FieldType.INT, bucket=FieldType.INT, score=FieldType.FLOAT)
DIMS = Schema.of(bucket=FieldType.INT, label=FieldType.STRING)

#: Sources scan in batches of 64; their outbound channels re-tune to
#: ~1 KiB batches, so a source settle and a flush hash different rows.
CONFIG = ReproConfig(
    workflow=WorkflowConfig(auto_tune_batch_size=True, auto_batch_target_bytes=1024)
)

SCHEDULE = FaultSchedule(
    events=(
        FaultEvent(0.01, "operator", target="bump"),
        FaultEvent(0.05, "operator", target="by_label"),
    )
)


def make_workflow():
    facts = Table.from_rows(FACTS, [[i, i % 5, i / 10] for i in range(900)])
    dims = Table.from_rows(DIMS, [[b, f"b{b}"] for b in range(5)])
    wf = Workflow("cache-key-exactness")
    scan = wf.add_operator(TableSource("scan", facts))
    dim = wf.add_operator(TableSource("dims", dims))
    bump = wf.add_operator(
        MapOperator(
            "bump",
            FACTS,
            lambda row: [row["id"], row["bucket"], row["score"] + 1.0],
            extra_seconds_fn=lambda row: 1.0e-5,
        )
    )
    join = wf.add_operator(
        HashJoinOperator(
            "join", "bucket", "bucket", num_workers=2, broadcast_build=True
        )
    )
    by_label = wf.add_operator(
        GroupByOperator(
            "by_label",
            "label",
            AggregationFunction.SUM,
            value_field="score",
            language=OperatorLanguage.SCALA,
            num_workers=2,
        )
    )
    sink = wf.add_operator(SinkOperator("results"))
    wf.link(scan, bump)
    wf.link(dim, join, input_port=0)
    wf.link(bump, join, input_port=1)
    wf.link(join, by_label)
    wf.link(by_label, sink)
    return wf


def record_keys(cache, calls):
    """Append ``(kind, key)`` for every lookup and insert ``cache`` sees."""
    lookup, insert = cache.lookup, cache.insert

    def recording_lookup(fingerprint, tracer=None):
        calls.append(("lookup", fingerprint))
        return lookup(fingerprint, tracer=tracer)

    def recording_insert(fingerprint, nbytes=0, node="", kind="task", tracer=None):
        calls.append((f"insert:{kind}", fingerprint))
        return insert(fingerprint, nbytes, node, kind=kind, tracer=tracer)

    cache.lookup, cache.insert = recording_lookup, recording_insert


def observe():
    calls = []
    runs = []
    with tracing(), memory_managed("on"), cached("on") as cache:
        record_keys(cache, calls)
        for _ in range(2):  # cold, then warm
            with faults_injected(SCHEDULE) as injector:
                result = run_workflow(build_cluster(Environment()), make_workflow(), CONFIG)
            runs.append(
                (result.table().multiset(), injector.injected, injector.retries)
            )
    return calls, runs, cache.stats()


def test_cache_keys_reproduce_the_recorded_sequence():
    calls, runs, stats = observe()
    # The runs must reach every kind of key, or the digest pins nothing.
    (cold_rows, cold_injected, cold_retries), (warm_rows, *_) = runs
    assert cold_rows == warm_rows and len(cold_rows) == 5
    assert cold_injected == cold_retries == 2
    assert stats["hits"] > 0 and stats["misses"] > 0
    assert {kind for kind, _ in calls} == {
        "lookup",
        "insert:batch",
        "insert:channel",
        "insert:operator",
    }
    blob = json.dumps(calls).encode()
    assert hashlib.sha256(blob).hexdigest() == DIGEST
