"""An aborted workflow hands back the channel RAM it reserved.

Under ``repro.mem`` a producer's ``_flush`` reserves each batch's bytes
on the consumer's node and ``_run_consumer`` frees them once the batch
is consumed.  When an operator fails, the batches still queued or
mid-consumption never reach that free, so ``WorkflowController.execute``
releases what the controller still holds while tearing the run down
(``docs/architecture.md``, "How a batch is paid for").
"""

from repro.cluster import build_cluster
from repro.errors import OperatorError
from repro.mem import memory_managed
from repro.sim import Environment
from repro.workflow import OperatorState, WorkflowController
from repro.workflow.operators import MapOperator

from tests.support.workflows import SCHEMA, scan_middle_sink


def make_workflow(poison=300):
    """scan(4000) -> ``m`` -> results; ``m`` raises on row ``poison``."""

    def fn(row):
        if row["id"] == poison:
            raise RuntimeError("poisoned row")
        return row.values

    crash = MapOperator("m", SCHEMA, fn, extra_seconds_fn=lambda row: 0.001)
    return scan_middle_sink(crash, rows=4000)


def run(poison=300):
    """Run to the end or the failure; return (cluster, controller, error)."""
    cluster = build_cluster(Environment())
    controller = WorkflowController(cluster, make_workflow(poison))
    error = None
    try:
        cluster.env.run(until=cluster.env.process(controller.execute()))
    except OperatorError as exc:
        error = exc
    return cluster, controller, error


def held(cluster):
    return {
        node.name: (node.ram_used, cluster.memory.anonymous_bytes(node.name))
        for node in cluster.workers
    }


def test_a_failed_run_releases_its_channel_reservations():
    with memory_managed("on"):
        cluster, controller, error = run()
    # At the parent commit worker-1 kept 18 000 B (batches queued for
    # ``m`` plus the one it died on) and worker-2 kept 3 600 B.
    assert set(held(cluster).values()) == {(0, 0)}
    # The failure itself is what it always was.
    assert isinstance(error, OperatorError)
    assert error.operator_id == "m" and "poisoned row" in str(error)
    states = {op: controller.progress.of(op).state for op in ("scan", "m", "results")}
    assert states == dict.fromkeys(states, OperatorState.FAILED)


def test_a_successful_run_under_the_policy_ends_with_nothing_held():
    with memory_managed("on"):
        cluster, controller, error = run(poison=-1)
    assert error is None
    assert set(held(cluster).values()) == {(0, 0)}
    assert controller.progress.of("results").state is OperatorState.COMPLETED


def test_a_dormant_failing_run_never_reserves_and_fails_the_same_way():
    cluster, _, error = run()
    with memory_managed("on"):
        _, _, managed_error = run()
    assert not cluster.memory.active
    assert all(node.ram_used == 0 for node in cluster.workers)
    assert error is not None and str(error) == str(managed_error)
