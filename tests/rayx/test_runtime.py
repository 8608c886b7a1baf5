"""Unit tests for the Ray-like script runtime."""

import pytest

from repro.config import default_config
from repro.errors import RayxError
from repro.rayx import RayxRuntime, run_script
from repro.tasks import fresh_cluster

STARTUP = default_config().rayx.startup_s
DISPATCH = default_config().rayx.task_dispatch_s


def test_driver_runs_and_returns_value():
    def driver(rt):
        ref = yield from rt.put(123)
        value = yield from rt.get(ref)
        return value

    cluster = fresh_cluster()
    assert run_script(cluster, driver) == 123
    assert cluster.env.now > STARTUP  # startup + store costs charged


def test_driver_must_be_generator():
    def bad_driver(rt):
        return 1

    with pytest.raises(RayxError):
        run_script(fresh_cluster(), bad_driver)


def test_remote_task_executes_function():
    def square(ctx, x):
        yield from ctx.compute(0.5)
        return x * x

    def driver(rt):
        refs = [rt.submit(square, i) for i in range(4)]
        values = yield from rt.get_all(refs)
        return values

    assert run_script(fresh_cluster(), driver) == [0, 1, 4, 9]


def test_plain_function_tasks_supported():
    def add(ctx, a, b):
        return a + b

    def driver(rt):
        value = yield from rt.get(rt.submit(add, 2, 3))
        return value

    assert run_script(fresh_cluster(), driver) == 5


def test_num_cpus_limits_parallelism():
    def work(ctx):
        yield from ctx.compute(10.0)
        return ctx.node_name

    def driver(rt):
        refs = [rt.submit(work) for _ in range(4)]
        yield from rt.get_all(refs)
        return rt.env.now

    serial = run_script(fresh_cluster(), driver, num_cpus=1)
    parallel = run_script(fresh_cluster(), driver, num_cpus=4)
    # 4 tasks x 10s: serial ~40s of compute, parallel ~10s.
    assert serial > 40
    assert parallel < 15
    assert serial > 3 * (parallel - STARTUP)


def test_invalid_num_cpus_rejected():
    cluster = fresh_cluster()
    with pytest.raises(ValueError):
        RayxRuntime(cluster, num_cpus=0)


def test_object_ref_args_are_dereferenced():
    def consume(ctx, payload):
        return payload["x"]

    def driver(rt):
        ref = yield from rt.put({"x": 42})
        value = yield from rt.get(rt.submit(consume, ref))
        return value

    assert run_script(fresh_cluster(), driver) == 42


def test_task_exception_reraised_at_get():
    def bad(ctx):
        yield ctx.runtime.env.timeout(0.1)
        raise ValueError("task blew up")

    def driver(rt):
        ref = rt.submit(bad)
        try:
            yield from rt.get(ref)
        except ValueError as exc:
            return str(exc)

    assert run_script(fresh_cluster(), driver) == "task blew up"


def test_large_object_costs_more_than_small():
    import numpy as np

    def driver_factory(nbytes):
        def driver(rt):
            ref = yield from rt.put(np.zeros(nbytes // 8))
            yield from rt.get(ref)
            return rt.env.now

        return driver

    small = run_script(fresh_cluster(), driver_factory(10**6))
    big = run_script(fresh_cluster(), driver_factory(10**9))
    assert big > small + 0.5


def test_replica_caching_pays_transfer_once():
    """Two gets from the same node: second is cheaper (no transfer)."""
    import numpy as np

    def reader(ctx, refs):
        # Nested refs are not auto-dereferenced (Ray semantics): wrap in
        # a list to receive the ref itself.
        ref = refs[0]
        start = ctx.runtime.env.now
        yield from ctx.get(ref)
        first = ctx.runtime.env.now - start
        start = ctx.runtime.env.now
        yield from ctx.get(ref)
        second = ctx.runtime.env.now - start
        return first, second

    def driver(rt):
        ref = yield from rt.put(np.zeros(10**7))
        first, second = yield from rt.get(rt.submit(reader, [ref]))
        return first, second

    first, second = run_script(fresh_cluster(), driver)
    assert second < first


def test_model_compute_pinned_to_one_core():
    """Ray pins torch to 1 CPU: 8 GFLOP takes 4 s at 2 GFLOP/s/core."""
    machine = default_config().topology.machine

    def infer(ctx):
        yield from ctx.model_compute(8e9)
        return ctx.runtime.env.now

    def driver(rt):
        start = rt.env.now
        yield from rt.get(rt.submit(infer))
        return rt.env.now - start

    elapsed = run_script(fresh_cluster(), driver)
    pinned = 8e9 / machine.flops_per_core_per_s
    assert elapsed >= pinned
    assert elapsed < pinned * 1.5


def test_round_robin_placement_across_workers():
    def where(ctx):
        return ctx.node_name

    def driver(rt):
        refs = [rt.submit(where) for _ in range(4)]
        names = yield from rt.get_all(refs)
        return names

    names = run_script(fresh_cluster(), driver, num_cpus=4)
    assert sorted(names) == ["worker-0", "worker-1", "worker-2", "worker-3"]


def test_task_counters():
    def noop(ctx):
        return None

    cluster = fresh_cluster()
    runtime_holder = {}

    def driver(rt):
        runtime_holder["rt"] = rt
        refs = [rt.submit(noop) for _ in range(3)]
        yield from rt.get_all(refs)
        return None

    run_script(cluster, driver)
    rt = runtime_holder["rt"]
    assert rt.tasks_submitted == 3
    assert rt.tasks_completed == 3


def test_shutdown_frees_object_store_ram():
    import numpy as np

    cluster = fresh_cluster()

    def driver(rt):
        yield from rt.put(np.zeros(10**6))
        return None

    run_script(cluster, driver)
    assert all(node.ram_used == 0 for node in cluster.workers)
    assert cluster.controller.ram_used == 0


def test_dispatch_cost_charged_per_task():
    def noop(ctx):
        return None

    def driver_n(n):
        def driver(rt):
            refs = [rt.submit(noop) for _ in range(n)]
            yield from rt.get_all(refs)
            return rt.env.now

        return driver

    few = run_script(fresh_cluster(), driver_n(2))
    many = run_script(fresh_cluster(), driver_n(50))
    assert many - few > 40 * DISPATCH
