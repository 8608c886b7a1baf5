"""Script-runtime recovery under deterministic fault injection.

Ray-style fault tolerance at simulation scale: transient task faults
are retried with exponential backoff, node outages kill and re-run
in-flight work, lost replicas fail over to survivors, and objects with
no surviving replica are rebuilt from lineage.  Real exceptions (bugs)
are never retried.
"""

import pytest

from repro.cli import _fault_summary
from repro.config import default_config
from repro.errors import InjectedFault
from repro.faults import FaultEvent, FaultSchedule, faults_injected
from repro.rayx import run_script
from repro.tasks import fresh_cluster

MAX_RETRIES = default_config().rayx.max_task_retries
BACKOFF = default_config().rayx.retry_backoff_base_s


def schedule_of(*events, seed=None):
    return FaultSchedule(events=tuple(events), seed=seed)


#: A schedule whose only event can never fire — keeps the injector
#: active (lineage recording on) without perturbing the run.
ARMED_BUT_QUIET = schedule_of(FaultEvent(1e9, "task", target="no-such-task"))


def compute_task(ctx, x):
    yield from ctx.compute(1.0)
    return x * x


def squares_driver(rt):
    refs = [rt.submit(compute_task, i) for i in range(4)]
    values = yield from rt.get_all(refs)
    return values


def test_injected_task_fault_is_retried_to_success():
    cluster = fresh_cluster()
    clean_values = run_script(cluster, squares_driver, num_cpus=4)
    clean_elapsed = cluster.env.now

    schedule = schedule_of(FaultEvent(0.01, "task", target="compute_task"))
    with faults_injected(schedule) as injector:
        cluster = fresh_cluster()
        values = run_script(cluster, squares_driver, num_cpus=4)
    assert values == clean_values
    assert injector.injected == 1
    assert injector.retries == 1
    assert cluster.env.now > clean_elapsed  # backoff + re-execution charged


def test_task_fault_delay_charges_progress_before_crashing():
    schedule = schedule_of(
        FaultEvent(0.01, "task", target="compute_task", delay_s=0.75)
    )
    with faults_injected(schedule) as injector:
        cluster = fresh_cluster()
        run_script(cluster, squares_driver, num_cpus=4)
    no_delay = schedule_of(FaultEvent(0.01, "task", target="compute_task"))
    with faults_injected(no_delay):
        other = fresh_cluster()
        run_script(other, squares_driver, num_cpus=4)
    assert injector.injected == 1
    assert cluster.env.now > other.env.now


def test_real_exceptions_are_not_retried():
    def buggy(ctx):
        yield from ctx.compute(0.1)
        raise ValueError("genuine bug")

    def driver(rt):
        value = yield from rt.get(rt.submit(buggy))
        return value

    with faults_injected(ARMED_BUT_QUIET) as injector:
        with pytest.raises(ValueError, match="genuine bug"):
            run_script(fresh_cluster(), driver)
    assert injector.retries == 0


def test_retries_exhausted_propagates_injected_fault():
    events = tuple(
        FaultEvent(0.01, "task", target="doomed") for _ in range(MAX_RETRIES + 1)
    )
    schedule = schedule_of(*events)

    def doomed(ctx):
        yield from ctx.compute(0.1)
        return "unreachable"

    def driver(rt):
        value = yield from rt.get(rt.submit(doomed, label="doomed"))
        return value

    with faults_injected(schedule) as injector:
        with pytest.raises(InjectedFault):
            run_script(fresh_cluster(), driver)
    assert injector.injected == MAX_RETRIES + 1
    assert injector.retries == MAX_RETRIES


def test_node_outage_mid_compute_is_retried():
    def long_task(ctx):
        yield from ctx.compute(5.0)
        return ctx.node_name

    def driver(rt):
        value = yield from rt.get(rt.submit(long_task))
        return value

    # Dispatch happens after the ~2 s runtime startup; the outage at
    # t=4 lands mid-compute, so the crash is detected at the compute
    # boundary and the task re-runs once the window has closed.
    schedule = schedule_of(FaultEvent(4.0, "node", target="worker-0", duration_s=1.0))
    with faults_injected(schedule) as injector:
        cluster = fresh_cluster()
        node_name = run_script(cluster, driver)
    assert node_name == "worker-0"  # re-ran after the window closed
    assert injector.injected == 1  # the outage itself
    assert injector.retries == 1
    assert cluster.env.now > 2.0 + 5.0 + 5.0  # both executions charged


def test_replica_failover_reads_from_survivor():
    def driver(rt):
        ref = yield from rt.put([1, 2, 3], label="shared")
        store = rt.store
        # Materialize a second replica, then lose the owner's copy.
        first = yield from store.get(ref, "worker-0")
        owner = ref.owner_node
        assert store.replicas_of(ref) == {owner, "worker-0"}
        store.evict_node(owner)
        assert store.replicas_of(ref) == {"worker-0"}
        # A third node must fetch from the surviving replica.
        second = yield from store.get(ref, "worker-1")
        assert second == first == [1, 2, 3]
        assert store.replicas_of(ref) == {"worker-0", "worker-1"}
        return store.replicas_lost

    assert run_script(fresh_cluster(), driver) == 1


def test_lineage_reconstruction_rebuilds_lost_object():
    def make_payload(ctx):
        yield from ctx.compute(0.5)
        return {"rows": list(range(8))}

    def driver(rt):
        ref = rt.submit(make_payload, label="payload")
        first = yield from rt.get(ref)
        store = rt.store
        before = rt.env.now
        for node_name in sorted(store.replicas_of(ref)):
            store.evict_node(node_name)
        assert store.replicas_of(ref) == set()  # all copies gone
        second = yield from rt.get(ref)
        assert second == first == {"rows": list(range(8))}
        assert store.reconstructions == 1
        assert rt.env.now > before  # re-execution + re-store charged
        return True

    with faults_injected(ARMED_BUT_QUIET):
        assert run_script(fresh_cluster(), driver)


def test_a_reconstruction_counts_as_one_recovery_action():
    def driver(rt):
        ref = rt.submit(compute_task, 3, label="only")
        yield from rt.get(ref)
        for node_name in sorted(rt.store.replicas_of(ref)):
            rt.store.evict_node(node_name)
        return (yield from rt.get(ref))

    with faults_injected(ARMED_BUT_QUIET) as injector:
        assert run_script(fresh_cluster(), driver) == 9
    assert injector.retries == 0
    assert _fault_summary(injector).startswith("faults: 0 injected, 1 recovery actions,")


def test_a_node_crash_during_reconstruction_is_retried():
    # Seed 748 drops the only replica of t1's result; its lineage
    # re-run lands on worker-0, which goes down mid-compute.  The
    # re-run must be retried like a task, on a healthy worker.
    def task(ctx, x):
        yield from ctx.compute(0.3)
        return [(x, float(x) * 1.5)]

    runtimes = []

    def driver(rt):
        runtimes.append(rt)
        refs = [rt.submit(task, i, label=f"t{i}") for i in range(6)]
        partials = yield from rt.get_all(refs)
        return sorted(row for partial in partials for row in partial)

    clean = run_script(fresh_cluster(), driver, num_cpus=3)
    schedule = FaultSchedule.generate(
        seed=748, horizon_s=8.0, tasks=1, operators=1, nodes=1, replicas=1
    )
    with faults_injected(schedule) as injector:
        rows = run_script(fresh_cluster(), driver, num_cpus=3)
    assert rows == clean
    runtime = runtimes[-1]
    # t1, and t4, whose only replica the outage took with worker-0.
    assert runtime.store.reconstructions == 2
    # One backoff for the task fault, one for the crashed re-run of t1.
    assert injector.retries == 2
    # t0's retry, t1's rebuild and its retry, t4's rebuild.
    assert runtime.scheduler.replacements == 4


def test_reconstruction_requires_lineage():
    from repro.errors import ReconstructionError

    def driver(rt):
        # Faults are inactive here, so no lineage is recorded and
        # evict_node refuses to drop the last copy of the result.
        ref = rt.submit(compute_task, 3)
        yield from rt.get(ref)
        store = rt.store
        replicas = set(store.replicas_of(ref))
        for node_name in sorted(replicas):
            store.evict_node(node_name)
        assert store.replicas_of(ref)  # the final copy survived
        value = yield from rt.get(ref)
        return value

    assert run_script(fresh_cluster(), driver) == 9
    assert ReconstructionError is not None  # imported for documentation


def test_link_degradation_slows_transfers():
    def driver(rt):
        ref = yield from rt.put(list(range(50_000)), label="bulk")
        yield from rt.store.get(ref, "worker-0")  # one cross-node transfer
        return rt.env.now

    clean = run_script(fresh_cluster(), driver)
    schedule = schedule_of(
        FaultEvent(0.0, "link", duration_s=1e6, factor=8.0)
    )
    with faults_injected(schedule):
        degraded = run_script(fresh_cluster(), driver)
    assert degraded > clean


def test_fixed_seed_recovery_timeline_is_reproducible():
    schedule = FaultSchedule.generate(
        seed=5, horizon_s=3.0, tasks=2, links=1, task_target="compute_task"
    )

    def one_run():
        with faults_injected(schedule) as injector:
            cluster = fresh_cluster()
            values = run_script(cluster, squares_driver, num_cpus=2)
        return (
            cluster.env.now,
            values,
            injector.injected,
            injector.retries,
            injector.skipped,
        )

    assert one_run() == one_run()
