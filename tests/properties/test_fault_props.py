"""Property: runs leak no resources, with or without injected faults.

After any run — clean or under an arbitrary seeded fault schedule, on
either engine — every node's RAM reservations are back to baseline and
every vCPU has been released.  Recovery machinery (retries, replica
failover, reconstruction, checkpoint restores) must account for every
byte and core it touches.
"""

import random

from contextlib import suppress
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.workflow.engine as wf_engine

from repro.cluster import build_cluster
from repro.errors import InjectedFault
from repro.faults import FaultSchedule, faults_injected
from repro.obs import tracing
from repro.rayx import run_script
from repro.relational import FieldType, Schema, Table, column_greater
from repro.sim import Environment
from repro.workflow import Workflow, run_workflow
from repro.workflow.operators import FilterOperator, SinkOperator, TableSource

SCHEMA = Schema.of(id=FieldType.INT, score=FieldType.FLOAT)

schedules = st.one_of(
    st.none(),  # a clean run is a degenerate schedule
    st.builds(
        FaultSchedule.generate,
        seed=st.integers(0, 2**16),
        horizon_s=st.just(8.0),
        tasks=st.integers(0, 3),
        operators=st.integers(0, 2),
        nodes=st.integers(0, 1),
        links=st.integers(0, 1),
        replicas=st.integers(0, 1),
    ),
)


def assert_resources_released(cluster, stores=()):
    for node in [cluster.controller, *cluster.workers]:
        assert node.ram_used == 0, f"{node.name} leaked {node.ram_used} bytes"
        assert node.cpus.available == node.cpus.capacity, (
            f"{node.name} leaked {node.cpus.capacity - node.cpus.available} vCPUs"
        )
        # Kernel-level check: no dead process may stay queued in the
        # vCPU FIFO — a stale waiter at the head would starve every
        # request behind it (the leak `ResourceRequest.cancel` exists
        # to prevent).
        assert not node.cpus._waiters, (
            f"{node.name} has {len(node.cpus._waiters)} stale vCPU waiters"
        )
    for store in stores:
        assert not store.items, f"channel store left {len(store.items)} items"
        assert not store._putters, (
            f"channel store left {len(store._putters)} stale putters"
        )
        assert not store._getters, (
            f"channel store left {len(store._getters)} stale getters"
        )


def script_run():
    def task(ctx, x):
        yield from ctx.compute(0.5)
        return [x] * 200

    def driver(rt):
        refs = [rt.submit(task, i) for i in range(4)]
        values = yield from rt.get_all(refs)
        return values

    cluster = build_cluster(Environment())
    # A schedule may legitimately exhaust ``max_task_retries``; the
    # failed run must hand back every byte and core all the same.
    with suppress(InjectedFault):
        run_script(cluster, driver, num_cpus=2)
    return cluster


def workflow_run():
    table = Table.from_rows(SCHEMA, [[i, i / 10] for i in range(120)])
    wf = Workflow("leak-check")
    src = wf.add_operator(TableSource("scan", table))
    keep = wf.add_operator(FilterOperator("keep", column_greater("score", 2.0)))
    sink = wf.add_operator(SinkOperator("results"))
    wf.link(src, keep)
    wf.link(keep, sink)
    # Track every inter-operator channel store the engine creates so the
    # property can assert the kernel queues drained completely.
    stores = []

    class TrackingStore(wf_engine.Store):
        __slots__ = ()

        def __init__(self, env, capacity=None):
            super().__init__(env, capacity)
            stores.append(self)

    cluster = build_cluster(Environment())
    with mock.patch.object(wf_engine, "Store", TrackingStore), suppress(InjectedFault):
        run_workflow(cluster, wf)
    return cluster, stores


@settings(max_examples=25, deadline=None)
@given(schedule=schedules)
@example(
    # The worker-0 outage eats three attempts of one task and the three
    # task faults the rest: ``max_task_retries`` runs out and the driver
    # sees InjectedFault.
    schedule=FaultSchedule.generate(
        seed=956, horizon_s=8.0, tasks=3, operators=2, nodes=1, links=0, replicas=0
    )
)
def test_script_run_releases_all_resources(schedule):
    if schedule is None:
        assert_resources_released(script_run())
        return
    with faults_injected(schedule):
        cluster = script_run()
    assert_resources_released(cluster)


@settings(max_examples=25, deadline=None)
@given(schedule=schedules)
def test_workflow_run_releases_all_resources(schedule):
    if schedule is None:
        cluster, stores = workflow_run()
        assert_resources_released(cluster, stores)
        return
    with faults_injected(schedule):
        cluster, stores = workflow_run()
    assert_resources_released(cluster, stores)


@settings(max_examples=15, deadline=None)
@given(schedule=schedules, runner=st.sampled_from(["script", "workflow"]))
def test_busy_seconds_matches_traced_counter(schedule, runner):
    """The ``node.busy_s`` counter and ``Node.busy_seconds`` agree exactly.

    Both accumulate the same float increments in the same order, so the
    equality is bit-exact — under any fault schedule, on either engine.
    A kill mid-compute that billed only one of the two would break this
    (the regression the partial-slice accounting fix closed).
    """
    run = script_run if runner == "script" else (lambda: workflow_run()[0])
    if schedule is None:
        with tracing() as tracer:
            cluster = run()
    else:
        with faults_injected(schedule), tracing() as tracer:
            cluster = run()
    for node in [cluster.controller, *cluster.workers]:
        counted = tracer.metrics.value("node.busy_s", node=node.name)
        assert counted == node.busy_seconds, (
            f"{node.name}: counter {counted} != busy_seconds "
            f"{node.busy_seconds}"
        )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_drained_node_leaves_no_leaks(seed):
    """``remove_node(drain=True)`` leaks no vCPUs, RAM or waiters.

    A node joins, random compute lands across the fleet, and a drain
    races the work.  Afterwards the worker set has shrunk back and every
    surviving node is at baseline.
    """
    rng = random.Random(seed)
    env = Environment()
    cluster = build_cluster(env)
    cluster.add_node("elastic-0")

    def work(node, duration_s, cores):
        yield from node.compute(duration_s, cores=cores)

    procs = [
        env.process(
            work(
                rng.choice(cluster.workers),
                rng.uniform(0.05, 0.8),
                rng.randint(1, 2),
            )
        )
        for _ in range(6)
    ]

    def drainer():
        yield env.timeout(rng.uniform(0.0, 0.4))
        yield from cluster.remove_node("elastic-0", drain=True)

    drain = env.process(drainer())

    def barrier():
        for proc in procs:
            yield proc
        yield drain

    env.run(until=env.process(barrier()))
    assert "elastic-0" not in cluster.node_names()
    assert not cluster.draining
    assert_resources_released(cluster)
