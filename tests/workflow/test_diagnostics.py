"""Every DAG validation failure names the offending operator and port.

The paper's Section III-A credits the GUI paradigm with surfacing
configuration errors *at editing time, at the operator level*.  These
tests pin the diagnostics contract: cycle, dangling link, duplicate
link into an input port, and schema mismatch all identify the operator
id (and where meaningful, the port) in the exception message, so a
spec author never has to bisect the DAG by hand.
"""

import pytest

from repro.errors import InvalidWorkflow
from repro.relational import FieldType, Schema, Table
from repro.workflow import Workflow
from repro.workflow.operators import (
    FilterOperator,
    HashJoinOperator,
    MapOperator,
    ProjectionOperator,
    SinkOperator,
    TableSource,
    UnionOperator,
)

SCHEMA = Schema.of(id=FieldType.INT, score=FieldType.FLOAT)


def small_table():
    return Table.from_rows(SCHEMA, [[1, 0.5], [2, 1.5]])


def _identity(row):
    return list(row.values)


def test_cycle_error_names_operators_and_links():
    wf = Workflow("cyclic")
    a = wf.add_operator(MapOperator("map-a", SCHEMA, _identity))
    b = wf.add_operator(MapOperator("map-b", SCHEMA, _identity))
    wf.add_operator(SinkOperator("sink"))
    wf.link(a, b)
    wf.link(b, a)
    with pytest.raises(InvalidWorkflow) as exc:
        wf.topological_order()
    message = str(exc.value)
    assert "map-a" in message and "map-b" in message
    assert "map-a[0] -> map-b[0]" in message
    assert "map-b[0] -> map-a[0]" in message


def test_cycle_error_leaves_out_operators_up_and_downstream():
    wf = Workflow("cyclic")
    up = wf.add_operator(TableSource("up", small_table()))
    a = wf.add_operator(UnionOperator("a"))
    b = wf.add_operator(MapOperator("b", SCHEMA, _identity))
    out = wf.add_operator(SinkOperator("out"))
    wf.link(up, a)
    wf.link(a, b)
    wf.link(b, a, input_port=1)
    wf.link(b, out)
    with pytest.raises(InvalidWorkflow) as exc:
        wf.topological_order()
    message = str(exc.value)
    assert "cycle involving operators ['a', 'b'] " in message
    assert "(links on the cycle: ['a[0] -> b[0]', 'b[0] -> a[1]'])" in message


def test_dangling_link_names_missing_operator_and_ports():
    wf = Workflow()
    src = wf.add_operator(TableSource("scan", small_table()))
    orphan = SinkOperator("orphan-sink")  # never added
    with pytest.raises(InvalidWorkflow) as exc:
        wf.link(src, orphan)
    message = str(exc.value)
    assert "dangling link" in message
    assert "'orphan-sink'" in message
    assert "scan[0] -> orphan-sink[0]" in message


def test_out_of_range_output_port_names_operator_and_range():
    wf = Workflow()
    src = wf.add_operator(TableSource("scan", small_table()))
    sink = wf.add_operator(SinkOperator("sink"))
    with pytest.raises(
        InvalidWorkflow, match=r"'scan' has no output port 3.*0\.\.0"
    ):
        wf.link(src, sink, output_port=3)


def test_out_of_range_input_port_names_operator_and_range():
    wf = Workflow()
    src = wf.add_operator(TableSource("scan", small_table()))
    sink = wf.add_operator(SinkOperator("sink"))
    with pytest.raises(InvalidWorkflow, match=r"'sink' has no input port 2"):
        wf.link(src, sink, input_port=2)


def test_link_into_source_reports_it_has_no_input_ports():
    wf = Workflow()
    a = wf.add_operator(TableSource("scan-a", small_table()))
    b = wf.add_operator(TableSource("scan-b", small_table()))
    with pytest.raises(InvalidWorkflow, match="no input ports"):
        wf.link(a, b)


def test_duplicate_input_port_link_names_port_and_both_links():
    wf = Workflow()
    a = wf.add_operator(TableSource("scan-a", small_table()))
    b = wf.add_operator(TableSource("scan-b", small_table()))
    join = wf.add_operator(HashJoinOperator("join", "id", "id"))
    wf.link(a, join, input_port=0)
    with pytest.raises(InvalidWorkflow) as exc:
        wf.link(b, join, input_port=0)
    message = str(exc.value)
    assert "duplicate link into input port 0" in message
    assert "'join'" in message
    assert "scan-a[0] -> join[0]" in message  # the existing link
    assert "scan-b[0] -> join[0]" in message  # the conflicting link


def test_unconnected_input_ports_name_operator_and_ports():
    wf = Workflow()
    a = wf.add_operator(TableSource("scan-a", small_table()))
    join = wf.add_operator(HashJoinOperator("join", "id", "id"))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(a, join, input_port=0)
    wf.link(join, sink)
    with pytest.raises(InvalidWorkflow, match=r"'join' input ports \[1\]"):
        wf.validate()


def test_schema_mismatch_names_operator_port_and_producer():
    wf = Workflow()
    src = wf.add_operator(TableSource("scan", small_table()))
    proj = wf.add_operator(ProjectionOperator("narrow", ["missing_col"]))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, proj)
    wf.link(proj, sink)
    with pytest.raises(InvalidWorkflow) as exc:
        wf.compile_schemas()
    message = str(exc.value)
    assert "operator 'narrow'" in message
    assert "port 0" in message
    assert "from 'scan'" in message
    assert "'missing_col'" in message


def test_operator_scoped_invalid_workflow_passes_through_unwrapped():
    # Join key errors are already operator-scoped; the compile wrapper
    # must not double-wrap them.
    wf = Workflow()
    a = wf.add_operator(TableSource("scan-a", small_table()))
    b = wf.add_operator(TableSource("scan-b", small_table()))
    join = wf.add_operator(HashJoinOperator("join", "nope", "id"))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(a, join, input_port=0)
    wf.link(b, join, input_port=1)
    wf.link(join, sink)
    with pytest.raises(InvalidWorkflow) as exc:
        wf.compile_schemas()
    message = str(exc.value)
    assert "join" in message and "build key" in message
    assert "schema mismatch" not in message


def test_filter_keeps_schema_and_errors_stay_scoped():
    wf = Workflow()
    src = wf.add_operator(TableSource("scan", small_table()))
    keep = wf.add_operator(FilterOperator("keep", _never))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, keep)
    wf.link(keep, sink)
    schemas = wf.compile_schemas()
    assert schemas["keep"] == SCHEMA


def _never(row):
    return False
