"""Coverage for small public APIs not exercised elsewhere."""

import pytest

from repro.cluster import build_cluster
from repro.errors import ObjectNotFound, WorkflowError
from repro.rayx import ObjectStore, RayxRuntime
from repro.sim import Environment
from repro.workflow.progress import OperatorState, ProgressTracker


def test_object_store_contains_and_nbytes():
    cluster = build_cluster(Environment())
    runtime = RayxRuntime(cluster)
    store = runtime.store

    def proc():
        ref = yield from runtime.put([1, 2, 3])
        assert store.contains(ref)
        assert store.nbytes_of(ref) > 0
        return ref

    cluster.env.run(until=cluster.env.process(proc()))


def test_object_store_nbytes_of_unknown_ref():
    cluster = build_cluster(Environment())
    store = ObjectStore(cluster, cluster.config.object_store)
    from repro.rayx import ObjectRef

    with pytest.raises(ObjectNotFound):
        store.nbytes_of(ObjectRef(cluster.env))


def test_progress_tracker_guards():
    tracker = ProgressTracker()
    tracker.register("op", num_workers=1)
    with pytest.raises(WorkflowError, match="already registered"):
        tracker.register("op", num_workers=1)
    with pytest.raises(WorkflowError, match="not registered"):
        tracker.of("missing")


def test_progress_illegal_transition_rejected():
    tracker = ProgressTracker()
    progress = tracker.register("op", num_workers=1)
    progress.transition(OperatorState.READY)
    progress.transition(OperatorState.COMPLETED)
    with pytest.raises(WorkflowError, match="illegal"):
        progress.transition(OperatorState.RUNNING)


def test_progress_describe_line_format():
    tracker = ProgressTracker()
    tracker.register("scan", num_workers=1)
    tracker.record_input("scan", 5)
    tracker.record_output("scan", 3)
    (line,) = tracker.describe()
    assert line == "scan: running (in=5, out=3)"


def test_operator_progress_multi_worker_completion():
    tracker = ProgressTracker()
    progress = tracker.register("op", num_workers=3)
    progress.transition(OperatorState.READY)
    progress.worker_completed()
    progress.worker_completed()
    assert progress.state is not OperatorState.COMPLETED
    progress.worker_completed()
    assert progress.state is OperatorState.COMPLETED


def test_cluster_and_node_reprs():
    cluster = build_cluster(Environment())
    assert "Cluster" in repr(cluster)
    assert "worker-0" in repr(cluster.workers[0])


def test_tuple_and_table_reprs():
    from repro.relational import FieldType, Schema, Table, Tuple

    schema = Schema.of(x=FieldType.INT)
    row = Tuple(schema, [1])
    assert "x=1" in repr(row)
    assert "1 rows" in repr(Table(schema, [row]))


def test_predicate_combinator_descriptions():
    from repro.relational import all_of, any_of, column_equals, negate

    p = column_equals("x", 1)
    q = column_equals("y", 2)
    assert "and" in all_of([p, q]).describe()
    assert "or" in any_of([p, q]).describe()
    assert negate(p).describe().startswith("not")
    assert all_of([]).describe() == "true"
    assert any_of([]).describe() == "false"


def test_workflow_repr_and_link_repr():
    from repro.relational import FieldType, Schema, Table
    from repro.workflow import Workflow
    from repro.workflow.operators import SinkOperator, TableSource

    wf = Workflow("r")
    src = wf.add_operator(TableSource("s", Table(Schema.of(x=FieldType.INT))))
    sink = wf.add_operator(SinkOperator("k"))
    link = wf.link(src, sink)
    assert "2 operators" in repr(wf)
    assert "s[0] -> k[0]" in repr(link)


def test_actor_repr():
    from repro.rayx import run_script

    class Noop:
        def ping(self, ctx):
            return "pong"

    def driver(rt):
        actor = rt.create_actor(Noop)
        yield from rt.get(actor.call("ping"))
        text = repr(actor)
        actor.kill()
        return text

    text = run_script(build_cluster(Environment()), driver)
    assert "Noop@worker-0" in text
    assert "1 calls" in text
