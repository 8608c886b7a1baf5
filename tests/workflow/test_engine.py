"""Integration tests for the pipelined workflow engine."""

import pytest

from repro.errors import OperatorError
from repro.relational import FieldType, Schema, Table, column_greater, udf_predicate
from repro.tasks import fresh_cluster
from repro.workflow import OperatorLanguage, OperatorState, Workflow, run_workflow
from repro.workflow.operators import (
    AggregationFunction,
    FilterOperator,
    FlatMapOperator,
    GroupByOperator,
    HashJoinOperator,
    MapOperator,
    ProjectionOperator,
    SinkOperator,
    SortOperator,
    TableSource,
    VisualizationOperator,
)

SCHEMA = Schema.of(id=FieldType.INT, score=FieldType.FLOAT)


def make_table(n=100):
    return Table.from_rows(SCHEMA, [[i, (i % 10) / 10.0] for i in range(n)])


def run_simple(workflow):
    return run_workflow(fresh_cluster(), workflow)


def test_scan_filter_sink_end_to_end():
    wf = Workflow("basic")
    src = wf.add_operator(TableSource("src", make_table(100)))
    keep = wf.add_operator(FilterOperator("keep", column_greater("score", 0.5)))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, keep)
    wf.link(keep, sink)
    result = run_simple(wf)
    expected = make_table(100).filter(column_greater("score", 0.5))
    assert result.table().to_dicts() == expected.to_dicts()
    assert result.elapsed_s > 0


def test_progress_counts_match_figure9_semantics():
    wf = Workflow("progress")
    src = wf.add_operator(TableSource("src", make_table(100)))
    keep = wf.add_operator(FilterOperator("keep", column_greater("score", 0.5)))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, keep)
    wf.link(keep, sink)
    result = run_simple(wf)
    snapshot = result.progress.snapshot()
    assert snapshot["src"]["output_tuples"] == 100
    assert snapshot["keep"]["input_tuples"] == 100
    assert snapshot["keep"]["output_tuples"] == 40
    assert snapshot["sink"]["input_tuples"] == 40
    assert all(entry["state"] == "completed" for entry in snapshot.values())
    assert result.progress.all_completed()


def test_projection_and_map():
    out_schema = Schema.of(id=FieldType.INT, doubled=FieldType.FLOAT)
    wf = Workflow("map")
    src = wf.add_operator(TableSource("src", make_table(10)))
    mapper = wf.add_operator(
        MapOperator("map", out_schema, lambda r: [r["id"], r["score"] * 2])
    )
    proj = wf.add_operator(ProjectionOperator("proj", ["doubled"]))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, mapper)
    wf.link(mapper, proj)
    wf.link(proj, sink)
    result = run_simple(wf)
    assert result.table().column("doubled") == pytest.approx(
        [2 * ((i % 10) / 10.0) for i in range(10)]
    )


def test_flatmap_fan_out():
    out_schema = Schema.of(id=FieldType.INT)
    wf = Workflow("flatmap")
    src = wf.add_operator(TableSource("src", make_table(5)))
    fm = wf.add_operator(
        FlatMapOperator("fm", out_schema, lambda r: [[r["id"]], [r["id"] + 1000]])
    )
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, fm)
    wf.link(fm, sink)
    result = run_simple(wf)
    assert len(result.table()) == 10


def test_hash_join_matches_relational_join():
    left_schema = Schema.of(k=FieldType.INT, a=FieldType.STRING)
    right_schema = Schema.of(k=FieldType.INT, b=FieldType.STRING)
    build = Table.from_rows(left_schema, [[i % 7, f"a{i}"] for i in range(20)])
    probe = Table.from_rows(right_schema, [[i % 7, f"b{i}"] for i in range(30)])

    wf = Workflow("join")
    b = wf.add_operator(TableSource("build", build))
    p = wf.add_operator(TableSource("probe", probe))
    join = wf.add_operator(HashJoinOperator("join", build_key="k", probe_key="k"))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(b, join, input_port=0)
    wf.link(p, join, input_port=1)
    wf.link(join, sink)
    result = run_simple(wf)

    from repro.relational import hash_join

    expected = hash_join(probe, build, "k", "k")
    got = sorted(tuple(r.values) for r in result.table())
    want = sorted(tuple(r.values) for r in expected)
    assert got == want


def test_group_by_aggregation():
    wf = Workflow("agg")
    src = wf.add_operator(TableSource("src", make_table(100)))
    agg = wf.add_operator(
        GroupByOperator(
            "agg",
            group_key="score",
            aggregation=AggregationFunction.COUNT,
            result_field="n",
        )
    )
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, agg)
    wf.link(agg, sink)
    result = run_simple(wf)
    counts = {row["score"]: row["n"] for row in result.table()}
    assert counts == {(i % 10) / 10.0: 10 for i in range(10)}


def test_group_by_multi_worker_partitions_correctly():
    wf = Workflow("agg-mw")
    src = wf.add_operator(TableSource("src", make_table(200), num_workers=2))
    agg = wf.add_operator(
        GroupByOperator(
            "agg",
            group_key="score",
            aggregation=AggregationFunction.SUM,
            value_field="id",
            result_field="total",
            num_workers=4,
        )
    )
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, agg)
    wf.link(agg, sink)
    result = run_simple(wf)
    expected = {}
    for i in range(200):
        expected[(i % 10) / 10.0] = expected.get((i % 10) / 10.0, 0) + i
    got = {row["score"]: row["total"] for row in result.table()}
    assert got == pytest.approx(expected)


def test_sort_operator_orders_output():
    wf = Workflow("sort")
    src = wf.add_operator(TableSource("src", make_table(50)))
    sort = wf.add_operator(SortOperator("sort", key="score", reverse=True))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, sort)
    wf.link(sort, sink)
    result = run_simple(wf)
    scores = result.table().column("score")
    assert scores == sorted(scores, reverse=True)


def test_visualization_sink_produces_chart_spec():
    wf = Workflow("viz")
    src = wf.add_operator(TableSource("src", make_table(10)))
    viz = wf.add_operator(VisualizationOperator("viz", "scatter", "id", "score"))
    wf.link(src, viz)
    result = run_simple(wf)
    spec = result.charts["viz"]
    assert spec["chart"] == "scatter"
    assert spec["x"]["values"] == list(range(10))
    assert len(spec["y"]["values"]) == 10


def test_operator_error_reported_at_operator_level():
    def boom(row):
        raise RuntimeError("udf failure")

    wf = Workflow("err")
    src = wf.add_operator(TableSource("src", make_table(5)))
    bad = wf.add_operator(FilterOperator("bad", udf_predicate(boom)))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, bad)
    wf.link(bad, sink)
    with pytest.raises(OperatorError) as excinfo:
        run_simple(wf)
    assert excinfo.value.operator_id == "bad"


def test_multi_worker_filter_preserves_row_set():
    wf = Workflow("mw")
    src = wf.add_operator(TableSource("src", make_table(101), num_workers=3))
    keep = wf.add_operator(
        FilterOperator("keep", column_greater("score", 0.2), num_workers=4)
    )
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, keep)
    wf.link(keep, sink)
    result = run_simple(wf)
    expected = make_table(101).filter(column_greater("score", 0.2))
    assert sorted(result.table().column("id")) == sorted(expected.column("id"))


def test_more_workers_is_faster_for_heavy_operator():
    def heavy(n_workers):
        wf = Workflow("heavy")
        src = wf.add_operator(TableSource("src", make_table(500)))
        slow = wf.add_operator(
            FilterOperator(
                "slow",
                column_greater("score", -1),
                num_workers=n_workers,
                per_tuple_work_s=0.01,
            )
        )
        sink = wf.add_operator(SinkOperator("sink"))
        wf.link(src, slow)
        wf.link(slow, sink)
        return run_simple(wf).elapsed_s

    from repro.config import default_config

    startup = (
        default_config().workflow.startup_s
        + 3 * default_config().workflow.operator_deploy_s
    )
    one = heavy(1) - startup
    four = heavy(4) - startup
    assert four < one
    assert one / four > 2.0


def test_pipelining_beats_sequential_sum_of_stages():
    """Three equal-cost stages should overlap: makespan well below 3x."""

    def stage(op_id, workers=1):
        return FilterOperator(
            op_id, column_greater("score", -1), per_tuple_work_s=0.005
        )

    wf = Workflow("pipe")
    src = wf.add_operator(TableSource("src", make_table(400)))
    s1 = wf.add_operator(stage("s1"))
    s2 = wf.add_operator(stage("s2"))
    s3 = wf.add_operator(stage("s3"))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, s1)
    wf.link(s1, s2)
    wf.link(s2, s3)
    wf.link(s3, sink)
    elapsed = run_simple(wf).elapsed_s

    from repro.config import default_config

    startup = (
        default_config().workflow.startup_s
        + 5 * default_config().workflow.operator_deploy_s
    )
    per_stage = 400 * 0.005  # 2s of work per stage
    pipelined = elapsed - startup
    # Three 2s stages sequentially would be 6s; pipelining should land
    # well below that and can never beat the bottleneck stage.
    assert pipelined < 0.75 * 3 * per_stage
    assert pipelined > per_stage


def test_scala_operator_faster_than_python():
    def timed(language):
        wf = Workflow("lang")
        src = wf.add_operator(TableSource("src", make_table(2000)))
        op = wf.add_operator(
            FilterOperator(
                "op",
                column_greater("score", -1),
                language=language,
                per_tuple_work_s=1e-3,
            )
        )
        sink = wf.add_operator(SinkOperator("sink"))
        wf.link(src, op)
        wf.link(op, sink)
        return run_simple(wf).elapsed_s

    python_time = timed(OperatorLanguage.PYTHON)
    scala_time = timed(OperatorLanguage.SCALA)
    assert scala_time < python_time


def test_cross_language_edge_costs_more_serialization():
    """python->scala->python chain pays the cross-language bridge."""

    def timed(mid_language):
        wf = Workflow("bridge")
        # Megabyte string payloads make serialization dominate the
        # (lower) per-tuple overhead of the Scala operator.
        schema = Schema.of(id=FieldType.INT, blob=FieldType.STRING)
        table = Table.from_rows(schema, [[i, "x" * 10**6] for i in range(200)])
        src = wf.add_operator(TableSource("src", table))
        mid = wf.add_operator(
            FilterOperator(
                "mid", column_greater("id", -1), language=mid_language
            )
        )
        sink = wf.add_operator(SinkOperator("sink"))
        wf.link(src, mid)
        wf.link(mid, sink)
        return run_simple(wf).elapsed_s

    same = timed(OperatorLanguage.PYTHON)
    cross = timed(OperatorLanguage.SCALA)
    assert cross > same


def test_num_worker_instances_reported():
    wf = Workflow("count")
    src = wf.add_operator(TableSource("src", make_table(10), num_workers=2))
    keep = wf.add_operator(
        FilterOperator("keep", column_greater("score", -1), num_workers=3)
    )
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, keep)
    wf.link(keep, sink)
    result = run_simple(wf)
    assert result.num_worker_instances == 6


def test_result_table_requires_unambiguous_sink():
    wf = Workflow("two-sinks")
    src = wf.add_operator(TableSource("src", make_table(10)))
    keep = wf.add_operator(FilterOperator("keep", column_greater("score", -1)))
    s1 = wf.add_operator(SinkOperator("s1"))
    s2 = wf.add_operator(SinkOperator("s2"))
    wf.link(src, keep)
    wf.link(keep, s1)
    wf.link(src, s2)  # fan-out from source
    result = run_simple(wf)
    with pytest.raises(OperatorError):
        result.table()
    assert len(result.table("s1")) == 10
    assert len(result.table("s2")) == 10


def test_empty_source_completes_cleanly():
    wf = Workflow("empty")
    src = wf.add_operator(TableSource("src", Table(SCHEMA)))
    keep = wf.add_operator(FilterOperator("keep", column_greater("score", 0)))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, keep)
    wf.link(keep, sink)
    result = run_simple(wf)
    assert result.table().is_empty()
    assert result.progress.all_completed()


def test_blocking_operator_state_transitions():
    wf = Workflow("block")
    src = wf.add_operator(TableSource("src", make_table(10)))
    sort = wf.add_operator(SortOperator("sort", key="id"))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, sort)
    wf.link(sort, sink)
    result = run_simple(wf)
    assert result.progress.of("sort").state is OperatorState.COMPLETED
    assert result.progress.of("sort").output_tuples == 10
