"""Failure-injection tests: errors must surface loudly and precisely.

The paper's Section III-A compares how each paradigm reports errors —
the script at cell level (stack trace), the workflow at operator level.
These tests inject failures into both engines and assert the reporting
contracts.
"""

import dataclasses

import pytest

from repro.config import MachineConfig, default_config
from repro.errors import (
    InsufficientResources,
    InvalidWorkflow,
    OperatorError,
)
from repro.rayx import run_script
from repro.relational import FieldType, Schema, Table, udf_predicate
from repro.tasks import fresh_cluster
from repro.workflow import OperatorState, Workflow, WorkflowController
from repro.workflow.operators import FilterOperator, SinkOperator, TableSource

SCHEMA = Schema.of(id=FieldType.INT)


def make_table(n=50):
    return Table.from_rows(SCHEMA, [[i] for i in range(n)])


# -- workflow-side failures -------------------------------------------------------


def failing_workflow(fail_at=25):
    def predicate(row):
        if row["id"] == fail_at:
            raise RuntimeError(f"poison tuple {fail_at}")
        return True

    wf = Workflow("poison")
    src = wf.add_operator(TableSource("src", make_table()))
    bad = wf.add_operator(FilterOperator("poison-filter", udf_predicate(predicate)))
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, bad)
    wf.link(bad, sink)
    return wf


def test_workflow_failure_names_the_operator():
    cluster = fresh_cluster()
    controller = WorkflowController(cluster, failing_workflow())
    with pytest.raises(OperatorError) as excinfo:
        cluster.env.run(until=cluster.env.process(controller.execute()))
    assert excinfo.value.operator_id == "poison-filter"
    assert "poison tuple 25" in str(excinfo.value)


def test_workflow_failure_marks_states():
    cluster = fresh_cluster()
    controller = WorkflowController(cluster, failing_workflow())
    with pytest.raises(OperatorError):
        cluster.env.run(until=cluster.env.process(controller.execute()))
    states = {
        op_id: controller.progress.of(op_id).state
        for op_id in ("src", "poison-filter", "sink")
    }
    assert states["poison-filter"] is OperatorState.FAILED
    # Nothing may be left RUNNING after a failed execution.
    assert all(
        state in (OperatorState.FAILED, OperatorState.COMPLETED)
        for state in states.values()
    )


def test_workflow_failure_in_source():
    class _BadTable(Table):
        pass

    def boom(row):
        raise ValueError("source blew up")

    wf = Workflow("bad-src")
    src = wf.add_operator(TableSource("src", make_table(5)))
    bad = wf.add_operator(
        FilterOperator("first-op", udf_predicate(boom))
    )
    sink = wf.add_operator(SinkOperator("sink"))
    wf.link(src, bad)
    wf.link(bad, sink)
    cluster = fresh_cluster()
    controller = WorkflowController(cluster, wf)
    with pytest.raises(OperatorError) as excinfo:
        cluster.env.run(until=cluster.env.process(controller.execute()))
    assert excinfo.value.operator_id == "first-op"


def test_compile_time_errors_precede_execution():
    """Workflow validation fails before any virtual time is spent."""
    wf = Workflow("invalid")
    wf.add_operator(TableSource("src", make_table(5)))
    # no sink, unconnected — multiple problems
    cluster = fresh_cluster()
    controller = WorkflowController(cluster, wf)
    with pytest.raises(InvalidWorkflow):
        cluster.env.run(until=cluster.env.process(controller.execute()))
    assert cluster.env.now == 0.0


# -- script-side failures --------------------------------------------------------------


def test_script_task_error_reraises_original_exception():
    def bad_task(ctx, x):
        yield from ctx.compute(0.1)
        raise KeyError(f"missing {x}")

    def driver(rt):
        ref = rt.submit(bad_task, "the-key")
        value = yield from rt.get(ref)
        return value

    with pytest.raises(KeyError, match="the-key"):
        run_script(fresh_cluster(), driver)


def test_script_driver_can_recover_from_task_failure():
    def flaky(ctx, x):
        if x == 3:
            raise RuntimeError("bad input")
        return x

    def driver(rt):
        refs = [rt.submit(flaky, i) for i in range(5)]
        good = []
        for ref in refs:
            try:
                value = yield from rt.get(ref)
                good.append(value)
            except RuntimeError:
                pass
        return good

    assert run_script(fresh_cluster(), driver) == [0, 1, 2, 4]


def test_failure_in_one_task_does_not_poison_others():
    def bad(ctx):
        raise RuntimeError("dead")

    def good(ctx):
        yield from ctx.compute(1.0)
        return "alive"

    def driver(rt):
        bad_ref = rt.submit(bad)
        good_ref = rt.submit(good)
        value = yield from rt.get(good_ref)
        try:
            yield from rt.get(bad_ref)
        except RuntimeError:
            pass
        return value

    assert run_script(fresh_cluster(), driver, num_cpus=2) == "alive"


# -- resource exhaustion ----------------------------------------------------------------------


def tiny_ram_config():
    config = default_config()
    machine = MachineConfig(num_cpus=8, ram_bytes=100 * 2**20)  # 100 MiB
    topology = dataclasses.replace(config.topology, machine=machine)
    return dataclasses.replace(config, topology=topology)


def test_object_store_put_fails_when_model_exceeds_ram():
    """A 375 MB model cannot be stored on a 100 MiB node."""
    from repro.ml import TransEModel

    config = tiny_ram_config()
    model = TransEModel(["e0"], ["r"], config.models)

    def driver(rt):
        ref = yield from rt.put(model)
        return ref

    with pytest.raises(InsufficientResources):
        run_script(fresh_cluster(config), driver)


def test_compute_requesting_too_many_cores_fails():
    cluster = fresh_cluster()
    node = cluster.workers[0]
    with pytest.raises(InsufficientResources):
        cluster.env.run(until=cluster.env.process(node.compute(1.0, cores=99)))


# -- span hygiene on failing runs --------------------------------------------------


def test_workflow_failure_leaves_no_open_spans():
    """Tracer spans must balance even when an operator dies mid-run.

    Regression test: deploy/decode/encode/gather spans used to leak
    open when an exception unwound the engine's generators.
    """
    from repro.obs import Tracer, tracing

    tracer = Tracer()
    with tracing(tracer):
        cluster = fresh_cluster()
        controller = WorkflowController(cluster, failing_workflow())
        with pytest.raises(OperatorError):
            cluster.env.run(until=cluster.env.process(controller.execute()))
    assert tracer.spans  # the run was traced at all
    open_spans = [span for span in tracer.spans if not span.finished]
    assert open_spans == []


def test_script_failure_leaves_no_open_spans():
    """Task/objectstore spans close even when the task body raises."""
    from repro.obs import Tracer, tracing

    def bad_task(ctx):
        yield from ctx.compute(0.1)
        raise RuntimeError("poisoned")

    def driver(rt):
        value = yield from rt.get(rt.submit(bad_task))
        return value

    tracer = Tracer()
    with tracing(tracer):
        with pytest.raises(RuntimeError, match="poisoned"):
            run_script(fresh_cluster(), driver)
    assert tracer.spans
    open_spans = [span for span in tracer.spans if not span.finished]
    assert open_spans == []


def test_faulted_recovery_run_leaves_no_open_spans():
    """Retry/backoff and restart spans balance across injected faults."""
    from repro.faults import FaultEvent, FaultSchedule, faults_injected
    from repro.obs import Tracer, tracing

    def task(ctx, x):
        yield from ctx.compute(0.5)
        return x

    def driver(rt):
        values = yield from rt.get_all([rt.submit(task, i) for i in range(3)])
        return values

    schedule = FaultSchedule(events=(FaultEvent(0.01, "task", target="task"),))
    tracer = Tracer()
    with faults_injected(schedule), tracing(tracer):
        assert run_script(fresh_cluster(), driver) == [0, 1, 2]
    open_spans = [span for span in tracer.spans if not span.finished]
    assert open_spans == []
    assert any(span.category == "faults.recovery" for span in tracer.spans)
