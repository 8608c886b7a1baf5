"""Exactness pin for the workflow engine's one way to pay for a batch.

One fixed workflow — scan → Python map → Scala filter → 2-worker hash
group-by → sink: all three codecs, one fan-out, one blocking operator
— runs cold and then warm under a tracer, a memory policy, a
result cache and two operator faults (``keep`` crashes twice on the
same batch), so every charge the engine makes (encode, transfer,
decode, checkpoint, crashed half, restart, lookup, per-tuple work,
sink gather) is on the record.  The digest of everything observable is
a literal recorded at the commit *before* the copies in
``repro.workflow.engine`` were folded into one spanned charge, one
codec charge and one probe/memoise pair; a refactor of that path must
reproduce it to the bit.  ``docs/architecture.md`` ("How a batch is
paid for") names the divergences the digest freezes.
"""

import hashlib
import json

from repro.cache import cached
from repro.cluster import build_cluster
from repro.faults import FaultEvent, FaultSchedule, faults_injected
from repro.mem import memory_managed
from repro.obs import tracing
from repro.relational import FieldType, Schema, Table, column_greater
from repro.sim import Environment
from repro.workflow import Workflow, run_workflow
from repro.workflow.language import OperatorLanguage
from repro.workflow.operators import (
    AggregationFunction,
    FilterOperator,
    GroupByOperator,
    MapOperator,
    SinkOperator,
    TableSource,
)

DIGEST = "6394f0f3ca3f9d66c105ee05c90484d26e95d755226b159fd23cd982db474ce7"

SCHEMA = Schema.of(id=FieldType.INT, bucket=FieldType.INT, score=FieldType.FLOAT)

SCHEDULE = FaultSchedule(
    events=(
        # Both due at keep's first batch: the replay crashes again.
        FaultEvent(0.01, "operator", target="keep"),
        FaultEvent(0.01, "operator", target="keep"),
        FaultEvent(0.05, "operator", target="by_bucket"),
    )
)


def make_workflow():
    table = Table.from_rows(SCHEMA, [[i, i % 7, i / 100] for i in range(1200)])
    wf = Workflow("charge-exactness")
    scan = wf.add_operator(TableSource("scan", table))
    bump = wf.add_operator(
        MapOperator(
            "bump",
            SCHEMA,
            lambda row: [row["id"], row["bucket"], row["score"] + 1.0],
            extra_seconds_fn=lambda row: 1.0e-5,
        )
    )
    keep = wf.add_operator(
        FilterOperator(
            "keep", column_greater("score", 2.0), language=OperatorLanguage.SCALA
        )
    )
    by_bucket = wf.add_operator(
        GroupByOperator(
            "by_bucket",
            "bucket",
            AggregationFunction.SUM,
            value_field="score",
            language=OperatorLanguage.SCALA,
            num_workers=2,
        )
    )
    sink = wf.add_operator(SinkOperator("results"))
    wf.link(scan, bump)
    wf.link(bump, keep)
    wf.link(keep, by_bucket)
    wf.link(by_bucket, sink)
    return wf


def run_once():
    with faults_injected(SCHEDULE) as injector:
        cluster = build_cluster(Environment())
        result = run_workflow(cluster, make_workflow())
    return {
        "rows": sorted(tuple(row.values) for row in result.table().rows),
        "elapsed_s": result.elapsed_s,
        "now": cluster.env.now,
        "operator_stats": result.operator_stats,
        "faults": (injector.injected, injector.retries, injector.skipped),
        "ram": [
            (node.name, node.ram_used, cluster.memory.anonymous_bytes(node.name))
            for node in cluster.workers
        ],
    }


def observe():
    """Everything the two runs let an observer see, JSON-ready."""
    with tracing() as tracer, memory_managed("on"), cached("on") as cache:
        runs = [run_once(), run_once()]  # cold: all misses; warm: all hits
    names = {span.span_id: span.name for span in tracer.spans}
    return {
        "runs": runs,
        "spans": [
            (
                span.run_id,
                span.name,
                span.category,
                span.node,
                names.get(span.parent_id),
                span.attrs.get("status"),
                span.start_s,
                span.end_s,
                sorted(span.attrs.items()),
            )
            for span in tracer.spans
        ],
        "counters": tracer.metrics.snapshot()["counters"],
        "cache": cache.stats(),
    }


def test_the_one_charge_path_reproduces_the_recorded_run():
    seen = observe()
    # The runs must keep reaching every charge, or the digest pins nothing.
    cold, warm = seen["runs"]
    assert cold["rows"] == warm["rows"] and len(cold["rows"]) == 7
    assert cold["faults"] == warm["faults"] == (3, 3, 0)
    assert warm["elapsed_s"] < cold["elapsed_s"]
    assert all(used == 0 and anonymous == 0 for _, used, anonymous in cold["ram"])
    assert seen["cache"]["hits"] > 0 and seen["cache"]["misses"] > 0
    prefixes = {span[1].split(":")[0] for span in seen["spans"]}
    assert {"encode", "decode", "cache.hit", "restart", "gather-sink"} <= prefixes
    assert {"python", "jvm", "cross-language"} <= {
        span[1].split(":")[1] for span in seen["spans"] if span[1].startswith("decode:")
    }
    blob = json.dumps(seen, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == DIGEST
