"""Unit tests for the discrete-event kernel (repro.sim.core)."""

import pytest

from repro.errors import EmptySchedule, EventAlreadyTriggered, ProcessFailed
from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(3.5)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [3.5]
    assert env.now == 3.5


def test_timeouts_fire_in_order():
    env = Environment()
    order = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, 5, "late"))
    env.process(proc(env, 1, "early"))
    env.process(proc(env, 3, "mid"))
    env.run()
    assert order == ["early", "mid", "late"]


def test_equal_time_events_fire_in_creation_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_process_return_value_via_run_until():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return 42

    result = env.run(until=env.process(proc(env)))
    assert result == 42
    assert env.now == 2


def test_process_waits_on_process():
    env = Environment()

    def child(env):
        yield env.timeout(4)
        return "payload"

    def parent(env):
        value = yield env.process(child(env))
        return (env.now, value)

    assert env.run(until=env.process(parent(env))) == (4, "payload")


def test_event_succeed_delivers_value():
    env = Environment()
    gate = env.event()

    def waiter(env):
        value = yield gate
        return value

    def opener(env):
        yield env.timeout(1)
        gate.succeed("open")

    env.process(opener(env))
    assert env.run(until=env.process(waiter(env))) == "open"


def test_event_double_trigger_raises():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        event.succeed(2)
    with pytest.raises(EventAlreadyTriggered):
        event.fail(RuntimeError("x"))


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_event_failure_raises_in_waiter():
    env = Environment()
    gate = env.event()

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            return f"caught {exc}"

    def failer(env):
        yield env.timeout(1)
        gate.fail(RuntimeError("boom"))

    env.process(failer(env))
    assert env.run(until=env.process(waiter(env))) == "caught boom"


def test_unhandled_process_failure_propagates_to_run_until():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("kaput")

    with pytest.raises(ValueError, match="kaput"):
        env.run(until=env.process(bad(env)))


def test_orphan_process_failure_surfaces_at_run_end():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise KeyError("orphan")

    env.process(bad(env))
    with pytest.raises(ProcessFailed):
        env.run()


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad(env):
        yield 17

    with pytest.raises(ProcessFailed):
        env.run()
        env.run(until=env.process(bad(env)))


def test_run_until_time_stops_midway():
    env = Environment()
    seen = []

    def proc(env):
        for _ in range(10):
            yield env.timeout(1)
            seen.append(env.now)

    env.process(proc(env))
    env.run(until=4)
    assert seen == [1, 2, 3, 4]
    env.run()
    assert seen[-1] == 10


def test_run_until_past_time_rejected():
    env = Environment()
    env.process(iter_timeout(env, 5))
    env.run()
    with pytest.raises(ValueError):
        env.run(until=1)


def iter_timeout(env, delay):
    yield env.timeout(delay)


def test_deadlock_detected_when_awaiting_unreachable_event():
    env = Environment()
    never = env.event()

    def waiter(env):
        yield never

    with pytest.raises(EmptySchedule):
        env.run(until=env.process(waiter(env)))


def test_all_of_waits_for_every_event():
    env = Environment()

    def child(env, delay, value):
        yield env.timeout(delay)
        return value

    def parent(env):
        procs = [env.process(child(env, d, d * 10)) for d in (3, 1, 2)]
        condition = yield env.all_of(procs)
        return (env.now, condition.values())

    when, values = env.run(until=env.process(parent(env)))
    assert when == 3
    assert sorted(values) == [10, 20, 30]


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def parent(env):
        condition = yield env.all_of([])
        return condition.values()

    assert env.run(until=env.process(parent(env))) == []


def test_all_of_fails_fast_on_child_failure():
    env = Environment()

    def ok(env):
        yield env.timeout(10)

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("child died")

    def parent(env):
        try:
            yield env.all_of([env.process(ok(env)), env.process(bad(env))])
        except RuntimeError:
            return env.now

    assert env.run(until=env.process(parent(env))) == 1


def test_any_of_returns_first_event():
    env = Environment()

    def child(env, delay, value):
        yield env.timeout(delay)
        return value

    def parent(env):
        fast = env.process(child(env, 1, "fast"))
        slow = env.process(child(env, 9, "slow"))
        first = yield env.any_of([fast, slow])
        return (env.now, first.value)

    assert env.run(until=env.process(parent(env))) == (1, "fast")


def test_any_of_requires_events():
    env = Environment()
    with pytest.raises(ValueError):
        env.any_of([])


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7)
    assert env.peek() == 7


def test_nested_process_chains():
    env = Environment()

    def leaf(env):
        yield env.timeout(1)
        return 1

    def mid(env):
        a = yield env.process(leaf(env))
        b = yield env.process(leaf(env))
        return a + b

    def root(env):
        x = yield env.process(mid(env))
        y = yield env.process(mid(env))
        return x + y

    assert env.run(until=env.process(root(env))) == 4
    assert env.now == 4


# -- run(until=T) clock semantics -------------------------------------------------


def test_run_until_advances_clock_when_queue_drains_early():
    # Regression: the kernel used to leave the clock at the last event's
    # time when the queue drained before the deadline; ``run(until=T)``
    # must always end with ``now == T``.
    env = Environment()
    env.process(iter_timeout(env, 2))
    env.run(until=10)
    assert env.now == 10.0


def test_run_until_advances_clock_on_empty_schedule():
    env = Environment()
    env.run(until=5)
    assert env.now == 5.0


def test_run_until_resumes_correctly_after_early_drain():
    env = Environment()
    seen = []

    def late(env):
        yield env.timeout(7)
        seen.append(env.now)

    env.process(iter_timeout(env, 1))
    env.run(until=3)
    assert env.now == 3.0
    env.process(late(env))  # scheduled at now=3, fires at 10
    env.run()
    assert seen == [10.0]


# -- (time, sequence) tie-break pin ----------------------------------------------


def test_sequence_breaks_ties_within_equal_time_and_priority():
    env = Environment()
    order = []
    # Schedule out of time order so entries split across the kernel's
    # internal queues (tail then heap), at equal times.
    for tag, delay in [("a5", 5.0), ("b1", 1.0), ("c5", 5.0), ("d1", 1.0)]:
        env.timeout(delay, tag).add_callback(lambda ev: order.append(ev.value))
    env.run()
    assert order == ["b1", "d1", "a5", "c5"]
