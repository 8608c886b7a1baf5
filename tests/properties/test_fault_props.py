"""Property: runs leak no resources, with or without injected faults.

After any run — clean or under an arbitrary seeded fault schedule, on
either engine — every node's RAM reservations are back to baseline and
every vCPU has been released.  Recovery machinery (retries, replica
failover, reconstruction, checkpoint restores) must account for every
byte and core it touches, and the object store's replica ledger stays
exact however its operations interleave.
"""

import random

from contextlib import suppress
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.workflow.engine as wf_engine

from repro.cluster import build_cluster
from repro.config import MemoryConfig
from repro.errors import InjectedFault
from repro.faults import FaultSchedule, faults_injected
from repro.obs import tracing
from repro.rayx import ObjectRef, ObjectStore, run_script
from repro.relational import Table, column_greater
from repro.sim import Environment
from repro.workflow import Workflow, run_workflow
from repro.workflow.operators import FilterOperator, SinkOperator, TableSource
from tests.support.ledger import assert_ledger_laws, assert_resources_released
from tests.support.workflows import SCHEMA

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

    A node joins and is handed sole and redundant replicas, random
    compute and cross-node reads land across the fleet, and a drain
    races them.  Afterwards the worker set has shrunk back, the replica
    ledger balances and every surviving node is at baseline.
    """
    rng = random.Random(seed)
    env = Environment()
    cluster = build_cluster(env)
    cluster.add_node("elastic-0")
    store = ObjectStore(cluster, cluster.config.object_store)
    refs = [ObjectRef(env, label=f"obj-{i}") for i in range(3)]

    def seed_objects():
        for i, ref in enumerate(refs):
            yield from store.put(ref, list(range(20_000 * (i + 1))), "elastic-0")
        # obj-0 gains a second copy: draining it is a free drop.
        yield from store.get(refs[0], "worker-0")

    env.run(until=env.process(seed_objects()))
    survivors = [w for w in cluster.workers if w.name != "elastic-0"]

    def work(node, duration_s, cores):
        yield from node.compute(duration_s, cores=cores)

    def read(ref, node, delay_s):
        yield env.timeout(delay_s)
        yield from store.get(ref, node.name)

    procs = [
        env.process(
            work(
                rng.choice(cluster.workers),
                rng.uniform(0.05, 0.8),
                rng.randint(1, 2),
            )
        )
        for _ in range(6)
    ] + [
        env.process(
            read(rng.choice(refs), rng.choice(survivors), rng.uniform(0.0, 1.0))
        )
        for _ in range(4)
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
    assert all(store.replicas_of(ref) for ref in refs)
    assert_resources_released(cluster, object_stores=[store])


# -- the replica ledger under arbitrary interleavings -------------------------

NODES = ["controller", "worker-0", "worker-1", "worker-2"]
#: Sizes whose put-times and cross-node transfers (0.1-2 ms) overlap the
#: microsecond offsets below, so operations land inside each other.
SIZES = [1_000, 50_000, 200_000]

slots = st.integers(0, 2)
nodes = st.sampled_from(NODES)
ledger_ops = st.one_of(
    st.tuples(st.just("put"), slots, nodes, st.sampled_from(SIZES)),
    st.tuples(st.just("get"), slots, nodes),
    st.tuples(st.just("restore"), slots, nodes, st.booleans()),
    st.tuples(st.just("drop_replica"), slots),
    st.tuples(st.just("evict_node"), nodes),
    st.tuples(
        st.just("migrate_node"), st.permutations(NODES).map(lambda ns: ns[:2])
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    memory=st.sampled_from([None, MemoryConfig(enabled=True)]),
    schedule=st.lists(st.tuples(st.integers(0, 4_000), ledger_ops), max_size=14),
)
@example(
    # A restore's put-time and a re-put reserve the same (ref, node)
    # pair at once: the memory manager tracks one reservation per pair,
    # so the second attach has to wait its turn.
    memory=MemoryConfig(enabled=True),
    schedule=[
        (0, ("put", 0, "worker-0", 1_000)),
        (2_000, ("drop_replica", 0)),
        (2_100, ("restore", 0, "worker-1", True)),
        (2_101, ("put", 0, "worker-1", 50_000)),
    ],
)
def test_replica_ledger_is_exact_under_any_interleaving(memory, schedule):
    """``put`` / re-``put`` / ``get`` / loss / drain / ``restore``, interleaved.

    Each operation starts at its own virtual microsecond, so transfers,
    put-times and rebuilds overlap arbitrarily — under the dormant policy
    and under ``mem on``.  Both conservation laws hold before every
    operation starts and once everything settled, where reserved RAM is
    exactly the listed replicas; ``free_all`` then returns every byte.
    """
    env = Environment()
    cluster = build_cluster(env, memory=memory)
    store = ObjectStore(cluster, cluster.config.object_store)
    refs = [ObjectRef(env, label=f"obj-{i}") for i in range(3)]
    values = {}

    def rebuild(ref):
        yield env.timeout(1e-4)
        yield from store.restore(ref, values[ref.ref_id], "worker-3")

    store.reconstructor = rebuild

    def put(slot, node, size):
        # A re-put is a fresh ObjectRef answering to the slot's ref_id.
        ref = refs[slot]
        if ref.ref_id in values:
            ref = ObjectRef(env, label=ref.label)
            ref.ref_id = refs[slot].ref_id
        values[ref.ref_id] = list(range(size))
        store.lineage[ref.ref_id] = (None, ())
        yield from store.put(ref, values[ref.ref_id], node)

    def restore(slot, node, charge):
        ref = refs[slot]
        if store.contains(ref):
            yield from store.restore(ref, values[ref.ref_id], node, charge=charge)

    starters = {
        "put": put,
        "get": lambda slot, node: store.get(refs[slot], node),
        "restore": restore,
        "migrate_node": lambda pair: store.migrate_node(*pair),
    }
    for offset_us, (op, *args) in sorted(schedule, key=lambda entry: entry[0]):
        env.run(until=offset_us * 1e-6)
        assert_ledger_laws(cluster, [store])
        if op == "drop_replica":
            store.drop_replica(f"obj-{args[0]}")
        elif op == "evict_node":
            store.evict_node(*args)
        else:
            env.process(starters[op](*args))
    env.run()
    assert_ledger_laws(cluster, [store], settled=True)
    assert_resources_released(cluster, object_stores=[store])
