"""Unit tests for operators not fully covered by the engine tests."""

import pytest

from repro.cluster import build_cluster
from repro.config import default_config
from repro.errors import InvalidWorkflow
from repro.relational import FieldType, Schema, Table
from repro.sim import Environment
from repro.workflow import Workflow, run_workflow
from repro.workflow.operators import (
    AggregationFunction,
    GroupByOperator,
    JsonlSource,
    MapOperator,
    ModelApplyOperator,
    ProjectionOperator,
    SinkOperator,
    TableSource,
    TopKOperator,
    TrainOperator,
    UnionOperator,
    VisualizationOperator,
)

SCHEMA = Schema.of(id=FieldType.INT, score=FieldType.FLOAT)


def run_simple(wf):
    return run_workflow(build_cluster(Environment()), wf)


def make_table(n=40):
    return Table.from_rows(SCHEMA, [[i, (i % 10) / 10.0] for i in range(n)])


def test_a_source_executor_has_no_input_port():
    executor = TableSource("src", make_table()).create_executor()
    row = make_table(1).rows[0]
    with pytest.raises(InvalidWorkflow, match="no input ports"):
        executor.process_tuple(row, 0)


# -- JsonlSource ----------------------------------------------------------------


def test_jsonl_source_extracts_fields():
    records = [{"id": 1, "score": 0.5, "extra": "ignored"}, {"id": 2}]
    wf = Workflow("records")
    src = wf.add_operator(JsonlSource("src", records, SCHEMA))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, sink)
    result = run_simple(wf)
    assert result.table().to_dicts() == [
        {"id": 1, "score": 0.5},
        {"id": 2, "score": None},
    ]


# -- Union ------------------------------------------------------------------------


def test_union_merges_all_inputs():
    wf = Workflow("union")
    a = wf.add_operator(TableSource("a", make_table(5)))
    b = wf.add_operator(TableSource("b", make_table(7)))
    union = wf.add_operator(UnionOperator("union"))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(a, union, input_port=0)
    wf.link(b, union, input_port=1)
    wf.link(union, sink)
    result = run_simple(wf)
    assert len(result.table()) == 12


def test_union_three_way():
    wf = Workflow("union3")
    sources = [wf.add_operator(TableSource(f"s{i}", make_table(3))) for i in range(3)]
    union = wf.add_operator(UnionOperator("union", num_inputs=3))
    sink = wf.add_operator(SinkOperator("sink"))
    for port, source in enumerate(sources):
        wf.link(source, union, input_port=port)
    wf.link(union, sink)
    assert len(run_simple(wf).table()) == 9


def test_union_rejects_mismatched_schemas():
    wf = Workflow("union-bad")
    a = wf.add_operator(TableSource("a", make_table(2)))
    b = wf.add_operator(
        TableSource("b", Table.from_rows(Schema.of(x=FieldType.INT), [[1]]))
    )
    union = wf.add_operator(UnionOperator("union"))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(a, union, input_port=0)
    wf.link(b, union, input_port=1)
    wf.link(union, sink)
    with pytest.raises(InvalidWorkflow, match="mismatched"):
        wf.compile_schemas()


def test_union_requires_two_inputs():
    with pytest.raises(InvalidWorkflow):
        UnionOperator("u", num_inputs=1)


# -- TopK --------------------------------------------------------------------------


def test_topk_keeps_largest():
    wf = Workflow("topk")
    src = wf.add_operator(TableSource("src", make_table(40)))
    top = wf.add_operator(TopKOperator("top", key="id", k=3))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, top)
    wf.link(top, sink)
    assert run_simple(wf).table().column("id") == [39, 38, 37]


def test_topk_reverse_false_keeps_smallest():
    wf = Workflow("bottomk")
    src = wf.add_operator(TableSource("src", make_table(40)))
    top = wf.add_operator(TopKOperator("top", key="id", k=2, reverse=False))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, top)
    wf.link(top, sink)
    assert run_simple(wf).table().column("id") == [0, 1]


def test_topk_validation():
    with pytest.raises(InvalidWorkflow):
        TopKOperator("t", key="id", k=0)


# -- GroupBy variants -----------------------------------------------------------------


@pytest.mark.parametrize(
    "fn,expected",
    [
        (AggregationFunction.SUM, 4.5),
        (AggregationFunction.AVG, 0.45),
        (AggregationFunction.MIN, 0.0),
        (AggregationFunction.MAX, 0.9),
    ],
)
def test_groupby_aggregations(fn, expected):
    table = Table.from_rows(SCHEMA, [[i, i / 10] for i in range(10)])
    wf = Workflow("agg")
    src = wf.add_operator(TableSource("src", table))
    agg = wf.add_operator(
        GroupByOperator(
            "agg",
            group_key="id",
            aggregation=fn,
            value_field="score",
        )
    )
    # Group by a constant to aggregate everything into one group.
    const = wf.add_operator(
        MapOperator(
            "const",
            Schema.of(id=FieldType.INT, score=FieldType.FLOAT),
            lambda row: [0, row["score"]],
        )
    )
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, const)
    wf.link(const, agg)
    wf.link(agg, sink)
    (row,) = run_simple(wf).table()
    assert row["result"] == pytest.approx(expected)


def test_groupby_requires_value_field_for_sum():
    with pytest.raises(InvalidWorkflow):
        GroupByOperator("g", group_key="id", aggregation=AggregationFunction.SUM)


# -- projections / maps ------------------------------------------------------------------


def test_projection_requires_columns():
    with pytest.raises(InvalidWorkflow):
        ProjectionOperator("p", [])


def test_map_constant_flops_accepted():
    op = MapOperator("m", SCHEMA, lambda r: list(r.values), flops_per_tuple=100.0)
    assert op.flops_fn(None) == 100.0


# -- visualization ---------------------------------------------------------------------------


def test_visualization_rejects_unknown_chart():
    with pytest.raises(InvalidWorkflow):
        VisualizationOperator("v", "sunburst", "id")


def test_visualization_validates_fields_at_compile():
    wf = Workflow("viz")
    src = wf.add_operator(TableSource("src", make_table(3)))
    viz = wf.add_operator(VisualizationOperator("viz", "bar", "missing"))
    wf.link(src, viz)
    # Wrapped at compile time so the message names the operator and port.
    with pytest.raises(InvalidWorkflow, match=r"'viz'.*port 0.*'missing'"):
        wf.compile_schemas()


# -- ModelApply / Train -------------------------------------------------------------------------


class _TinyModel:
    def predict(self, x):
        return x * 2


def test_model_apply_loads_once_and_applies():
    out_schema = Schema.of(id=FieldType.INT, doubled=FieldType.FLOAT)
    loads = []

    def loader():
        loads.append(1)
        return _TinyModel()

    wf = Workflow("apply")
    src = wf.add_operator(TableSource("src", make_table(20)))
    apply_op = wf.add_operator(
        ModelApplyOperator(
            "apply",
            out_schema,
            loader=loader,
            apply_fn=lambda model, row: [row["id"], model.predict(row["score"])],
            flops_fn=lambda model, row: 1e6,
            load_seconds=2.0,
        )
    )
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, apply_op)
    wf.link(apply_op, sink)
    result = run_simple(wf)
    assert len(loads) == 1
    assert result.table().column("doubled")[3] == pytest.approx(0.6)
    assert result.elapsed_s > 2.0  # load charged


def test_model_apply_load_seconds_validation():
    with pytest.raises(InvalidWorkflow):
        ModelApplyOperator(
            "m",
            SCHEMA,
            loader=lambda: None,
            apply_fn=lambda m, r: [],
            flops_fn=lambda m, r: 0,
            load_seconds=-1.0,
        )


def test_train_operator_trains_and_emits_epochs():
    from repro.ml import SimBertClassifier

    tweets = Table.from_rows(
        Schema.of(text=FieldType.STRING, label=FieldType.INT),
        [[f"wildfire climate {i}", 1] for i in range(10)]
        + [[f"recipe puppy {i}", 0] for i in range(10)],
    )
    wf = Workflow("train")
    src = wf.add_operator(TableSource("src", tweets))
    train = wf.add_operator(
        TrainOperator(
            "train",
            loader=lambda: SimBertClassifier("m", default_config().models),
            epochs=2,
        )
    )
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, train)
    wf.link(train, sink)
    result = run_simple(wf)
    assert len(result.table()) == 2  # one row per epoch
    assert train.trained_model is not None
    assert train.trained_model.fitted
    assert train.framework_cores == 1


def test_train_operator_validation():
    with pytest.raises(InvalidWorkflow):
        TrainOperator("t", loader=lambda: None, epochs=0)


# -- CsvSource -------------------------------------------------------------------------


def test_csv_source_parses_and_streams():
    from repro.workflow.operators import CsvSource

    content = "id,score\n1,0.5\n2,0.9\n"
    wf = Workflow("csv")
    src = wf.add_operator(CsvSource("src", content, SCHEMA))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, sink)
    result = run_simple(wf)
    assert result.table().to_dicts() == [
        {"id": 1, "score": 0.5},
        {"id": 2, "score": 0.9},
    ]


def test_csv_source_rejects_bad_content_eagerly():
    from repro.errors import StorageError
    from repro.workflow.operators import CsvSource

    with pytest.raises(StorageError):
        CsvSource("src", "wrong,header\n1,2\n", SCHEMA)
