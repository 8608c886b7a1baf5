"""The four ways the script runtime runs a body, and where they differ.

A task attempt, an actor call, a lineage reconstruction and a cache-hit
replay all run ``fn(ctx, *resolved)`` through ``TaskContext`` — same
argument resolution, same return value.  What each path is exempt from
or charged for is deliberate and pinned here, one test per divergence
(``docs/architecture.md``, "How a body runs").  Every assertion held
before the paths were folded into one, too.
"""

import pytest

from repro.cache import cached
from repro.config import default_config
from repro.faults import FaultEvent, FaultSchedule, faults_injected
from repro.obs import tracing
from repro.rayx import ObjectRef, run_script
from repro.tasks import fresh_cluster

STARTUP = default_config().rayx.startup_s
DISPATCH = default_config().rayx.task_dispatch_s

#: Active (lineage is recorded) but silent.
ARMED_BUT_QUIET = FaultSchedule(
    events=(FaultEvent(1e9, "task", target="no-such-task"),)
)

#: What each run of ``body`` was handed, in order.
SEEN = []


def body(ctx, rows, scale, nested):
    SEEN.append((rows, scale, nested))
    yield from ctx.compute(0.5)
    return [row * scale for row in rows]


class Host:
    def body(self, ctx, *args):
        return body(ctx, *args)


def as_task(rt, args):
    value = yield from rt.get(rt.submit(body, *args))
    return value


def as_actor_method(rt, args):
    value = yield from rt.get(rt.create_actor(Host).call("body", *args))
    return value


def by_reconstruction(rt, args):
    ref = rt.submit(body, *args)
    yield from rt.get(ref)
    for node_name in sorted(rt.store.replicas_of(ref)):
        rt.store.evict_node(node_name)
    value = yield from rt.get(ref)
    assert rt.store.reconstructions == 1
    return value


def run_path(path):
    """Run ``body`` along ``path``; returns (its last arguments, its value)."""

    def driver(rt):
        rows = yield from rt.put([1, 2, 3], label="rows")
        value = yield from path(rt, (rows, 2, [rows]))
        return rows, value

    del SEEN[:]
    rows, value = run_script(fresh_cluster(), driver)
    return rows, SEEN[-1], value


def run_replay():
    with cached("on") as cache:
        run_path(as_task)
        assert cache.stats()["hits"] == 0
        outcome = run_path(as_task)
        assert cache.stats()["hits"] == 2  # the put and the task
    return outcome


def run_reconstruction():
    with faults_injected(ARMED_BUT_QUIET):
        return run_path(by_reconstruction)


PATHS = {
    "task": lambda: run_path(as_task),
    "actor": lambda: run_path(as_actor_method),
    "reconstruction": run_reconstruction,
    "replay": run_replay,
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_every_path_resolves_the_same_arguments_and_returns_the_same_value(path):
    rows_ref, (rows, scale, nested), value = PATHS[path]()
    assert rows == [1, 2, 3]  # a top-level ref is dereferenced ...
    assert scale == 2
    assert len(nested) == 1 and nested[0] is rows_ref  # ... a nested one is not
    assert isinstance(nested[0], ObjectRef)
    assert value == [2, 4, 6]


def test_replay_charges_no_compute_and_reads_arguments_through_peek():
    with tracing() as tracer, cached("on,lookup=0.01"):
        run_path(as_task)
        run_path(as_task)

    def spans(run_id, category):
        return [s for s in tracer.spans if (s.run_id, s.category) == (run_id, category)]

    cold, warm = 0, 1
    assert len(spans(cold, "compute")) == 1
    assert spans(warm, "compute") == []
    # Cold: the task reads ``rows`` on its worker, the driver reads the
    # result.  Warm: the driver's read is the only object-store access
    # that is charged — the task's argument came through ``peek``.
    assert [(s.name, s.node) for s in spans(cold, "objectstore")] == [
        ("put", "controller"),
        ("get", "worker-0"),
        ("put", "worker-0"),
        ("get", "controller"),
    ]
    assert [(s.name, s.node) for s in spans(warm, "objectstore")] == [("get", "controller")]
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["objectstore.adopt.count"] == 2  # the put and the result
    assert counters["node.busy_s{node=worker-0}"] == 0.5  # the cold run's alone


def test_actor_calls_are_exempt_from_task_faults():
    schedule = FaultSchedule(events=(FaultEvent(0.0, "task", target="*"),))
    with faults_injected(schedule) as injector:
        _, _, value = run_path(as_actor_method)
    assert value == [2, 4, 6]
    assert (injector.injected, injector.retries) == (0, 0)


def test_reconstruction_is_exempt_from_task_faults():
    # Falls due after the first execution finished (~2.51 s), so only
    # the reconstruction's compute boundary could take it.
    schedule = FaultSchedule(events=(FaultEvent(2.6, "task", target="*"),))

    def late_reconstruction(rt, args):
        ref = rt.submit(body, *args)
        yield from rt.get(ref)
        yield rt.env.timeout(1.0)
        for node_name in sorted(rt.store.replicas_of(ref)):
            rt.store.evict_node(node_name)
        value = yield from rt.get(ref)
        return value

    with faults_injected(schedule) as injector:
        _, _, value = run_path(late_reconstruction)
    assert len(SEEN) == 2  # the body did run again
    assert value == [2, 4, 6]
    assert (injector.injected, injector.retries) == (0, 0)


def test_task_attempt_rechecks_for_faults_after_the_lookup_charge():
    """A hit never masks a scheduled failure — and the cache is probed
    once per *attempt*, so one task counts two hits (the workflow engine
    probes once per epoch; see "How a body runs")."""

    def answer(ctx):
        return 42

    def driver(rt):
        value = yield from rt.get(rt.submit(answer))
        return value

    # Due inside the first attempt's lookup window, after its
    # post-dispatch check.
    schedule = FaultSchedule(
        events=(FaultEvent(STARTUP + DISPATCH + 0.005, "task", target="answer"),)
    )
    with cached("on,lookup=0.01") as cache:
        run_script(fresh_cluster(), driver)
        before = cache.stats()["hits"]
        with faults_injected(schedule) as injector:
            cluster = fresh_cluster()
            assert run_script(cluster, driver) == 42
    assert (injector.injected, injector.retries) == (1, 1)
    assert cache.stats()["hits"] - before == 2
    assert cluster.env.now == 2.5250000330666658


def test_actor_call_spans_are_roots_and_task_spans_nest_under_the_driver():
    with tracing() as tracer:
        run_path(as_task)
        run_path(as_actor_method)
    names = {span.span_id: span.name for span in tracer.spans}
    (task,) = tracer.finished_spans(category="rayx.task")
    (call,) = tracer.finished_spans(category="rayx.actor")
    assert names[task.parent_id] == "driver"
    assert call.parent_id is None
    assert call.name == "Host.body"
