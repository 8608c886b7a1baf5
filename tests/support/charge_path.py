"""One fixed workflow that reaches every charge the workflow engine makes;
``tests/workflow/test_charge_exactness.py`` digests what :func:`observe` sees."""

from repro.cache import cached
from repro.faults import FaultEvent, FaultSchedule, faults_injected
from repro.mem import memory_managed
from repro.obs import tracing
from repro.relational import FieldType, Schema, Table, column_greater
from repro.tasks import fresh_cluster
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
        cluster = fresh_cluster()
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
