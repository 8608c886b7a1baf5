"""Unit tests for the script runtime's actors."""

import pytest

from repro.errors import RayxError
from repro.rayx import run_script
from repro.tasks import fresh_cluster


class Counter:
    def __init__(self, start=0):
        self.total = start

    def add(self, ctx, amount):
        yield from ctx.compute(0.5)
        self.total += amount
        return self.total

    def snapshot(self, ctx):
        return self.total

    def explode(self, ctx):
        raise RuntimeError("actor method failed")


def test_actor_keeps_state_across_calls():
    def driver(rt):
        counter = rt.create_actor(Counter, 100)
        refs = [counter.call("add", i) for i in range(1, 4)]
        values = yield from rt.get_all(refs)
        counter.kill()
        return values

    assert run_script(fresh_cluster(), driver) == [101, 103, 106]


def test_actor_calls_execute_serially():
    """Three 0.5s calls take >= 1.5s even with spare CPUs."""

    def driver(rt):
        counter = rt.create_actor(Counter)
        start = rt.env.now
        refs = [counter.call("add", 1) for _ in range(3)]
        yield from rt.get_all(refs)
        return rt.env.now - start

    elapsed = run_script(fresh_cluster(), driver, num_cpus=4)
    assert elapsed >= 1.5


def test_plain_methods_supported():
    def driver(rt):
        counter = rt.create_actor(Counter, 7)
        value = yield from rt.get(counter.call("snapshot"))
        return value

    assert run_script(fresh_cluster(), driver) == 7


def test_actor_method_error_propagates_to_caller():
    def driver(rt):
        counter = rt.create_actor(Counter)
        try:
            yield from rt.get(counter.call("explode"))
        except RuntimeError as exc:
            return str(exc)

    assert run_script(fresh_cluster(), driver) == "actor method failed"


def test_error_does_not_kill_the_actor():
    def driver(rt):
        counter = rt.create_actor(Counter)
        try:
            yield from rt.get(counter.call("explode"))
        except RuntimeError:
            pass
        value = yield from rt.get(counter.call("add", 5))
        return value

    assert run_script(fresh_cluster(), driver) == 5


def test_unknown_method_rejected_eagerly():
    def driver(rt):
        counter = rt.create_actor(Counter)
        with pytest.raises(RayxError, match="no method"):
            counter.call("nope")
        yield rt.env.timeout(0)
        return True

    assert run_script(fresh_cluster(), driver)


def test_killed_actor_rejects_new_calls():
    def driver(rt):
        counter = rt.create_actor(Counter)
        ref = counter.call("add", 1)
        counter.kill()
        value = yield from rt.get(ref)  # queued call still completes
        with pytest.raises(RayxError, match="killed"):
            counter.call("add", 2)
        return value

    assert run_script(fresh_cluster(), driver) == 1


def test_constructor_failure_raises():
    class Broken:
        def __init__(self):
            raise ValueError("bad init")

    def driver(rt):
        with pytest.raises(RayxError, match="failed to construct"):
            rt.create_actor(Broken)
        yield rt.env.timeout(0)
        return True

    assert run_script(fresh_cluster(), driver)


def test_failed_constructor_releases_its_placement():
    """The placement made for an actor that never started is handed
    back — no phantom load for least_loaded / packed / spread to see —
    while the round-robin counter still advances, so the next actor
    lands where it always did."""

    class Broken:
        def __init__(self):
            raise ValueError("bad init")

    def driver(rt):
        with pytest.raises(RayxError, match="failed to construct"):
            rt.create_actor(Broken)
        accounts = rt.scheduler.accounts
        assert {name: account.outstanding for name, account in accounts.items()} == {
            name: 0 for name in accounts
        }
        assert accounts["worker-0"].total == 1  # it was placed, then released
        counter = rt.create_actor(Counter)
        yield rt.env.timeout(0)
        return counter.node.name

    assert run_script(fresh_cluster(), driver) == "worker-1"


def test_object_ref_arguments_resolved():
    import numpy as np

    class Scorer:
        def __init__(self):
            self.model = None

        def load(self, ctx, model):
            self.model = model
            return True

        def score(self, ctx, x):
            return float(self.model[x])

    def driver(rt):
        model_ref = yield from rt.put(np.arange(10.0))
        scorer = rt.create_actor(Scorer)
        yield from rt.get(scorer.call("load", model_ref))
        value = yield from rt.get(scorer.call("score", 3))
        return value

    assert run_script(fresh_cluster(), driver) == 3.0


def test_actors_place_round_robin():
    def driver(rt):
        actors = [rt.create_actor(Counter) for _ in range(4)]
        yield rt.env.timeout(0)
        return sorted(actor.node.name for actor in actors)

    names = run_script(fresh_cluster(), driver)
    assert names == ["worker-0", "worker-1", "worker-2", "worker-3"]
