"""Dual-paradigm compilation: one spec, two runtimes, one answer.

``compile_script_plan`` turns a workflow spec into a Ray-like task
graph — one task per (operator, worker), partitioning done inside the
consuming task.  The rows collected at the sinks must equal the
pipelined engine's rows as multisets for *any* spec; the virtual
timings legitimately differ (that difference is the paper's subject).
"""

import pytest

from repro.cluster import build_cluster
from repro.errors import InvalidWorkflow, WorkflowSpecError
from repro.paradigm import run_both
from repro.rayx import ScriptPlan, compile_script_plan
from repro.relational import FieldType, Schema, Table
from repro.sim import Environment
from repro.workflow import Workflow, run_workflow
from repro.workflow.operators import (
    HashJoinOperator,
    SinkOperator,
    TableSource,
)
from repro.workflow.spec import WorkflowSpec

SCHEMA = Schema.of(id=FieldType.INT, score=FieldType.FLOAT)


def spec_doc():
    return {
        "spec": "repro/workflow-spec@1",
        "name": "compile-demo",
        "operators": [
            {
                "id": "scan",
                "type": "table_source",
                "config": {"table": {"$param": "rows"}, "num_workers": 2},
            },
            {
                "id": "keep",
                "type": "filter",
                "config": {
                    "predicate": {
                        "$predicate": {"op": "greater", "column": "score", "value": 0.5}
                    },
                    "num_workers": 2,
                },
            },
            {"id": "view", "type": "sink", "config": {}},
        ],
        "links": [
            {"from": "scan", "to": "keep"},
            {"from": "keep", "to": "view"},
        ],
    }


def bindings(rows=120):
    return {"rows": Table.from_rows(SCHEMA, [[i, i / 40] for i in range(rows)])}


def test_plan_lists_one_task_per_operator_worker():
    plan = compile_script_plan(WorkflowSpec.from_json(spec_doc()), bindings())
    assert isinstance(plan, ScriptPlan)
    labels = [task.label for task in plan.tasks]
    assert labels == ["scan#0", "scan#1", "keep#0", "keep#1", "view#0"]
    keep0 = next(t for t in plan.tasks if t.label == "keep#0")
    assert keep0.upstream == ("scan#0", "scan#1")
    view = next(t for t in plan.tasks if t.label == "view#0")
    assert view.upstream == ("keep#0", "keep#1")


def test_script_rows_match_engine_rows():
    workflow, script = run_both(spec_doc(), bindings())
    assert script.rows == workflow.rows
    assert len(workflow.rows) > 0
    assert script.elapsed_s > 0


def test_hash_partitioned_join_matches_engine():
    left = Table.from_rows(SCHEMA, [[i, i / 10] for i in range(60)])
    right_schema = Schema.of(id=FieldType.INT, label=FieldType.STRING)
    right = Table.from_rows(right_schema, [[i, f"L{i}"] for i in range(0, 60, 2)])

    def make():
        wf = Workflow("join-demo")
        build = wf.add_operator(TableSource("build", right))
        probe = wf.add_operator(TableSource("probe", left, num_workers=2))
        join = wf.add_operator(
            HashJoinOperator("join", build_key="id", probe_key="id", num_workers=2)
        )
        sink = wf.add_operator(SinkOperator("out"))
        wf.link(build, join, input_port=0)
        wf.link(probe, join, input_port=1)
        wf.link(join, sink)
        return wf

    engine = run_workflow(build_cluster(Environment()), make())
    tables = compile_script_plan(make()).run()
    assert tables["out"].multiset() == engine.table().multiset()
    assert len(tables["out"]) == 30


def test_compile_validates_like_the_gui():
    doc = spec_doc()
    doc["links"] = doc["links"][:1]  # sink left unconnected
    with pytest.raises(InvalidWorkflow, match="unconnected"):
        compile_script_plan(WorkflowSpec.from_json(doc), bindings())
    with pytest.raises(WorkflowSpecError, match="unbound \\$param"):
        compile_script_plan(WorkflowSpec.from_json(spec_doc()), {})
