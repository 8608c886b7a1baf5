"""Unit tests for workflow DAG construction and validation."""

import json
import sys
from pathlib import Path

import pytest

from repro.errors import InvalidWorkflow
from repro.paradigm import run_both
from repro.relational import FieldType, Schema, Table, column_greater
from repro.workflow import Workflow
from repro.workflow.dag import topological_ids
from repro.workflow.operators import (
    FilterOperator,
    HashJoinOperator,
    ProjectionOperator,
    SinkOperator,
    TableSource,
)

SCHEMA = Schema.of(id=FieldType.INT, score=FieldType.FLOAT)
DEMO = Path(__file__).resolve().parents[2] / "examples" / "workflows" / "demo.json"


def small_table():
    return Table.from_rows(SCHEMA, [[1, 0.5], [2, 0.9]])


def linear_workflow():
    wf = Workflow("linear")
    src = wf.add_operator(TableSource("src", small_table()))
    keep = wf.add_operator(FilterOperator("keep", column_greater("score", 0.6)))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, keep)
    wf.link(keep, sink)
    return wf


def test_duplicate_operator_id_rejected():
    wf = Workflow()
    wf.add_operator(TableSource("src", small_table()))
    with pytest.raises(InvalidWorkflow):
        wf.add_operator(SinkOperator("src"))


def test_link_requires_added_operators():
    wf = Workflow()
    src = TableSource("src", small_table())
    sink = SinkOperator("sink")
    wf.add_operator(src)
    with pytest.raises(InvalidWorkflow):
        wf.link(src, sink)


def test_link_validates_port_numbers():
    wf = Workflow()
    src = wf.add_operator(TableSource("src", small_table()))
    sink = wf.add_operator(SinkOperator("sink"))
    with pytest.raises(InvalidWorkflow):
        wf.link(src, sink, output_port=1)
    with pytest.raises(InvalidWorkflow):
        wf.link(src, sink, input_port=1)


def test_input_port_single_link():
    wf = Workflow()
    a = wf.add_operator(TableSource("a", small_table()))
    b = wf.add_operator(TableSource("b", small_table()))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(a, sink)
    with pytest.raises(InvalidWorkflow):
        wf.link(b, sink)


def test_validate_requires_sink():
    wf = Workflow()
    wf.add_operator(TableSource("src", small_table()))
    with pytest.raises(InvalidWorkflow, match="no sink"):
        wf.validate()


def test_validate_requires_connected_inputs():
    wf = Workflow()
    wf.add_operator(TableSource("src", small_table()))
    wf.add_operator(SinkOperator("sink"))
    with pytest.raises(InvalidWorkflow, match="unconnected"):
        wf.validate()


def test_validate_empty_workflow():
    with pytest.raises(InvalidWorkflow, match="no operators"):
        Workflow().validate()


def test_topological_order_linear():
    wf = linear_workflow()
    assert [op.operator_id for op in wf.topological_order()] == [
        "src",
        "keep",
        "sink",
    ]


def test_cycle_detected():
    wf = Workflow()
    f1 = wf.add_operator(FilterOperator("f1", column_greater("score", 0)))
    f2 = wf.add_operator(FilterOperator("f2", column_greater("score", 0)))
    wf.add_operator(SinkOperator("sink"))
    wf.link(f1, f2)
    wf.link(f2, f1)
    with pytest.raises(InvalidWorkflow, match="cycle"):
        wf.topological_order()


def test_compile_schemas_propagates():
    wf = Workflow()
    src = wf.add_operator(TableSource("src", small_table()))
    proj = wf.add_operator(ProjectionOperator("proj", ["id"]))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, proj)
    wf.link(proj, sink)
    schemas = wf.compile_schemas()
    assert schemas["src"].names == ["id", "score"]
    assert schemas["proj"].names == ["id"]
    assert schemas["sink"].names == ["id"]


def test_compile_schemas_surfaces_bad_projection():
    wf = Workflow()
    src = wf.add_operator(TableSource("src", small_table()))
    proj = wf.add_operator(ProjectionOperator("proj", ["nope"]))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, proj)
    wf.link(proj, sink)
    # The failure is wrapped so the message names the operator and port.
    with pytest.raises(InvalidWorkflow, match=r"'proj'.*port 0.*'nope'"):
        wf.compile_schemas()


def test_join_schema_compile():
    left = Table.from_rows(Schema.of(k=FieldType.INT, a=FieldType.STRING), [[1, "x"]])
    right = Table.from_rows(Schema.of(k=FieldType.INT, b=FieldType.STRING), [[1, "y"]])
    wf = Workflow()
    l = wf.add_operator(TableSource("l", left))
    r = wf.add_operator(TableSource("r", right))
    join = wf.add_operator(HashJoinOperator("join", build_key="k", probe_key="k"))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(l, join, input_port=0)  # build
    wf.link(r, join, input_port=1)  # probe
    wf.link(join, sink)
    schemas = wf.compile_schemas()
    # probe-side first, build side suffixed on collision
    assert schemas["join"].names == ["k", "b", "k_right", "a"]


def test_join_compile_rejects_bad_keys():
    left = Table.from_rows(Schema.of(k=FieldType.INT), [[1]])
    wf = Workflow()
    l = wf.add_operator(TableSource("l", left))
    r = wf.add_operator(TableSource("r", left))
    join = wf.add_operator(HashJoinOperator("join", build_key="zz", probe_key="k"))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(l, join, input_port=0)
    wf.link(r, join, input_port=1)
    wf.link(join, sink)
    with pytest.raises(InvalidWorkflow, match="build key"):
        wf.compile_schemas()


def test_num_operators_metric():
    assert linear_workflow().num_operators == 3


def test_sources_and_sinks_listed():
    wf = linear_workflow()
    assert [op.operator_id for op in wf.sources()] == ["src"]
    assert [op.operator_id for op in wf.sinks()] == ["sink"]


# -- the one graph ---------------------------------------------------------------


def test_operators_and_links_are_read_only_views():
    wf = linear_workflow()
    with pytest.raises(TypeError):
        wf.operators["extra"] = SinkOperator("extra")
    with pytest.raises(AttributeError):
        wf.links.append(wf.links[0])
    with pytest.raises(AttributeError):
        wf.links = []
    assert [repr(link) for link in wf.links] == ["src[0] -> keep[0]", "keep[0] -> sink[0]"]


def test_one_run_of_a_spec_under_both_paradigms_sorts_at_most_six_times():
    """Two spec parses, then per paradigm one sort to compile schemas
    and one to lay out the plan (``sys.setprofile``, no wall clock)."""
    doc = json.loads(DEMO.read_text(encoding="utf-8"))
    calls = 0
    outer = sys.getprofile()

    def profile(frame, event, arg):
        nonlocal calls
        if outer is not None:
            outer(frame, event, arg)
        if event == "call" and frame.f_code is topological_ids.__code__:
            calls += 1

    sys.setprofile(profile)
    try:
        run_both(doc)
    finally:
        sys.setprofile(outer)
    assert calls <= 6
