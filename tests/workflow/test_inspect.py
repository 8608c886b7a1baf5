"""Tests for workflow inspection (spec export + ASCII rendering)."""

import json

from repro.relational import FieldType, Schema, Table, column_greater
from repro.workflow import OperatorLanguage, Workflow
from repro.workflow.inspect import describe_operator, render_dag, workflow_to_spec
from repro.workflow.operators import (
    AggregationFunction,
    FilterOperator,
    GroupByOperator,
    HashJoinOperator,
    ProjectionOperator,
    SinkOperator,
    SortOperator,
    TableSource,
    TopKOperator,
    TrainOperator,
)

SCHEMA = Schema.of(id=FieldType.INT, score=FieldType.FLOAT)


def sample_workflow():
    wf = Workflow("inspectable")
    src = wf.add_operator(TableSource("src", Table(SCHEMA)))
    keep = wf.add_operator(
        FilterOperator(
            "keep",
            column_greater("score", 0.5),
            language=OperatorLanguage.SCALA,
            num_workers=4,
        )
    )
    proj = wf.add_operator(ProjectionOperator("proj", ["id"]))
    sort = wf.add_operator(SortOperator("sort", key="id"))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, keep)
    wf.link(keep, proj)
    wf.link(proj, sort)
    wf.link(sort, sink)
    return wf


def test_describe_operator_panel():
    wf = sample_workflow()
    panel = describe_operator(wf.operators["keep"])
    assert panel["id"] == "keep"
    assert panel["type"] == "FilterOperator"
    assert panel["language"] == "scala"
    assert panel["workers"] == 4
    assert panel["predicate"] == "score > 0.5"
    assert panel["blocking"] is False


def test_describe_projection_lists_columns():
    wf = sample_workflow()
    panel = describe_operator(wf.operators["proj"])
    assert panel["columns"] == ["id"]


def test_spec_is_json_serializable():
    spec = workflow_to_spec(sample_workflow())
    encoded = json.dumps(spec)
    decoded = json.loads(encoded)
    assert decoded["name"] == "inspectable"
    assert len(decoded["operators"]) == 5
    assert len(decoded["links"]) == 4


def test_spec_operators_in_topological_order():
    spec = workflow_to_spec(sample_workflow())
    ids = [op["id"] for op in spec["operators"]]
    assert ids.index("src") < ids.index("keep") < ids.index("sink")


def test_spec_links_carry_ports():
    left = Table.from_rows(Schema.of(k=FieldType.INT), [[1]])
    wf = Workflow("ports")
    a = wf.add_operator(TableSource("a", left))
    b = wf.add_operator(TableSource("b", left))
    join = wf.add_operator(HashJoinOperator("join", build_key="k", probe_key="k"))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(a, join, input_port=0)
    wf.link(b, join, input_port=1)
    wf.link(join, sink)
    spec = workflow_to_spec(wf)
    ports = {(l["from"], l["to_port"]) for l in spec["links"]}
    assert ("a", 0) in ports
    assert ("b", 1) in ports


def test_render_dag_shows_operators_and_edges():
    text = render_dag(sample_workflow())
    assert "workflow 'inspectable'" in text
    assert "(keep) [scala, x4]" in text
    assert "(sort) [blocking]" in text
    assert "└─> (sink)" in text


def test_render_dag_badges_every_blocking_operator():
    schema = Schema.of(text=FieldType.STRING, label=FieldType.INT, score=FieldType.FLOAT)
    wf = Workflow("blocking")
    src = wf.add_operator(TableSource("src", Table(schema)))
    for op in (
        GroupByOperator("group", "label", AggregationFunction.COUNT, num_workers=2),
        TopKOperator("top", key="score", k=3),
        TrainOperator("train", loader=lambda: None),
        FilterOperator("keep", column_greater("score", 0.5)),
    ):
        wf.link(src, wf.add_operator(op))
    text = render_dag(wf)
    assert "(group) [x2, blocking]" in text
    assert "(top) [blocking]" in text
    assert "(train) [blocking]" in text
    assert "  (keep)\n" in text + "\n"


def test_render_dag_marks_join_ports():
    left = Table.from_rows(Schema.of(k=FieldType.INT), [[1]])
    wf = Workflow("ports")
    a = wf.add_operator(TableSource("a", left))
    b = wf.add_operator(TableSource("b", left))
    join = wf.add_operator(HashJoinOperator("join", build_key="k", probe_key="k"))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(a, join, input_port=0)
    wf.link(b, join, input_port=1)
    wf.link(join, sink)
    text = render_dag(wf)
    assert "└─> (join)" in text  # port 0 unannotated
    assert "└─> (join:1)" in text  # probe port annotated


def test_render_dag_badges_the_blocking_task_stages():
    from repro.datasets import generate_wildfire_tweets
    from repro.tasks.kge import build_kge_workflow, make_kge_dataset
    from repro.tasks.wef import build_wef_workflow

    kge = render_dag(
        build_kge_workflow(make_kge_dataset(20, universe_size=50), num_processing_ops=2)
    )
    assert "  (filter)\n" in kge
    assert "(join-score-rank-lookup) [blocking]" in kge
    wef = render_dag(build_wef_workflow(generate_wildfire_tweets(4)))
    assert "(train-framing-ensemble) [blocking]" in wef


def test_task_workflows_are_inspectable():
    """The real task DAGs export cleanly (smoke)."""
    from repro.datasets import generate_maccrobat
    from repro.tasks.dice import build_dice_workflow

    wf = build_dice_workflow(generate_maccrobat(num_docs=2, seed=7))
    spec = workflow_to_spec(wf)
    json.dumps(spec)
    assert render_dag(wf)
