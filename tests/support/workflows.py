"""A schema and a three-operator workflow the engine tests share."""

from repro.relational import FieldType, Schema, Table
from repro.workflow import Workflow
from repro.workflow.operators import MapOperator, SinkOperator, TableSource

SCHEMA = Schema.of(id=FieldType.INT, score=FieldType.FLOAT)


def scan_middle_sink(middle=None, rows=400):
    """scan(``rows``) -> ``middle`` -> results; by default ``middle`` is
    ``m``, a pass-through map that spends 1 ms per row."""
    table = Table.from_rows(SCHEMA, [[i, i / 100] for i in range(rows)])
    wf = Workflow("charge-paths")
    scan = wf.add_operator(TableSource("scan", table))
    middle = wf.add_operator(
        middle
        or MapOperator(
            "m", SCHEMA, lambda row: row.values, extra_seconds_fn=lambda r: 0.001
        )
    )
    sink = wf.add_operator(SinkOperator("results"))
    wf.link(scan, middle)
    wf.link(middle, sink)
    return wf
