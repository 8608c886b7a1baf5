"""Workflow-engine recovery: operator checkpoint/restart at epoch boundaries.

Texera-style fault tolerance: each instance snapshots its executor
state before consuming a batch (one batch == one epoch); an injected
operator fault crashes the instance mid-batch, the snapshot is
restored, and the batch replays.  Outputs are emitted only after a
batch completes, so downstream operators see every tuple exactly once
and results match the clean run bit for bit.
"""

from repro.cluster import build_cluster
from repro.faults import FaultEvent, FaultSchedule, faults_injected
from repro.relational import FieldType, Schema, Table, column_greater
from repro.sim import Environment
from repro.workflow import Workflow, run_workflow
from repro.workflow.operators import FilterOperator, SinkOperator, TableSource
from tests.support.workflows import SCHEMA


def make_workflow(rows=400):
    table = Table.from_rows(SCHEMA, [[i, i / 100] for i in range(rows)])
    wf = Workflow("recovery-demo")
    src = wf.add_operator(TableSource("scan", table))
    keep = wf.add_operator(FilterOperator("keep", column_greater("score", 1.0)))
    sink = wf.add_operator(SinkOperator("results"))
    wf.link(src, keep)
    wf.link(keep, sink)
    return wf


def run_once(schedule=None):
    cluster = build_cluster(Environment())
    if schedule is None:
        result = run_workflow(cluster, make_workflow())
        return result, None
    with faults_injected(schedule) as injector:
        cluster = build_cluster(Environment())
        result = run_workflow(cluster, make_workflow())
    return result, injector


def rows_of(result):
    return sorted(tuple(row.values) for row in result.table().rows)


def test_operator_restart_preserves_output():
    clean, _ = run_once()
    schedule = FaultSchedule(
        events=(FaultEvent(0.01, "operator", target="keep"),)
    )
    faulted, injector = run_once(schedule)
    assert rows_of(faulted) == rows_of(clean)
    assert injector.injected == 1
    assert injector.retries == 1  # one checkpoint restore
    assert faulted.elapsed_s > clean.elapsed_s  # wasted half-batch + restart


def test_repeated_faults_on_same_operator_all_recover():
    clean, _ = run_once()
    schedule = FaultSchedule(
        events=tuple(FaultEvent(0.01, "operator", target="keep") for _ in range(3))
    )
    faulted, injector = run_once(schedule)
    assert rows_of(faulted) == rows_of(clean)
    assert injector.injected == 3
    assert injector.retries == 3


def test_fault_on_unmatched_operator_changes_nothing():
    clean, _ = run_once()
    schedule = FaultSchedule(
        events=(FaultEvent(0.01, "operator", target="no-such-operator"),)
    )
    faulted, injector = run_once(schedule)
    assert rows_of(faulted) == rows_of(clean)
    assert injector.injected == 0
    assert injector.retries == 0
    # The checkpoint cost is charged while faults are armed, so the
    # run is slower than clean — but the *data* is untouched.
    assert faulted.elapsed_s >= clean.elapsed_s


def test_recovery_timeline_is_deterministic():
    schedule = FaultSchedule(
        events=(
            FaultEvent(0.01, "operator", target="keep"),
            FaultEvent(0.05, "operator", target="results"),
        )
    )
    first, first_injector = run_once(schedule)
    second, second_injector = run_once(schedule)
    assert first.elapsed_s == second.elapsed_s
    assert rows_of(first) == rows_of(second)
    assert first_injector.injected == second_injector.injected == 2
    assert first_injector.retries == second_injector.retries


def test_every_operator_state_completes_after_recovery():
    schedule = FaultSchedule(
        events=(FaultEvent(0.01, "operator", target="keep"),)
    )
    faulted, _ = run_once(schedule)
    description = "\n".join(faulted.progress.describe())
    assert description.count("completed") == 3
    assert "failed" not in description


class _TinyModel:
    name = "tiny"

    def train_epoch(self, examples, learning_rate):
        return float(len(examples))

    def train_step_flops(self, text):
        return 1.0


def test_a_restarted_train_operator_keeps_its_trained_model():
    from repro.workflow.operators import TrainOperator

    table = Table.from_rows(
        Schema.of(text=FieldType.STRING, label=FieldType.INT),
        [[f"t{i}", i % 2] for i in range(50)],
    )
    wf = Workflow("train-restart")
    src = wf.add_operator(TableSource("scan", table))
    train = wf.add_operator(TrainOperator("train", _TinyModel, epochs=1))
    sink = wf.add_operator(SinkOperator("results"))
    wf.link(src, train)
    wf.link(train, sink)
    schedule = FaultSchedule(events=(FaultEvent(0.0, "operator", target="train"),))
    with faults_injected(schedule) as injector:
        result = run_workflow(build_cluster(Environment()), wf)
    assert injector.retries == 1
    assert len(result.table().rows) == 1
    assert isinstance(train.trained_model, _TinyModel)


def test_a_restarted_wef_ensemble_keeps_its_trained_models():
    from repro.tasks.table import TASKS

    task = TASKS["wef"]
    data = task.dataset(40)
    clean = task.run("workflow", data)
    schedule = FaultSchedule(
        events=(FaultEvent(0.0, "operator", target="train-framing-ensemble"),)
    )
    with faults_injected(schedule) as injector:
        faulted = task.run("workflow", data)
    assert injector.retries == 1
    assert faulted.output.rows == clean.output.rows
    assert sorted(faulted.extras["models"]) == sorted(clean.extras["models"])
    assert len(faulted.extras["models"]) == 4
