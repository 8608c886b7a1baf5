"""Properties of the optimized DES kernel.

The kernel fast path (slotted events, the immediate/tail/heap triple
queue, inline succeed/fail) must be *invisible*: every run is ordered
and timed exactly as the single-heap seed kernel.  Two guards:

* pinned virtual timings for every paper task under a fixed injected
  fault schedule — recorded by running the identical workload on the
  pre-optimization kernel (clean-run pins live in
  ``tests/obs/test_timing_regression.py``);
* a Hypothesis property checking the core ordering contract directly:
  events complete in ``(time, sequence)`` order no matter how delays
  and zero-delay wakeups interleave.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultSchedule, faults_injected
from repro.sim import Environment
from tests.support.cells import seed_timings

#: Virtual timings of every paper task under one fixed fault schedule,
#: recorded on the pre-optimization (single-heap) kernel.  Exact float
#: equality is intentional: retries, backoffs and checkpoint restores
#: amplify any ordering drift, so agreement here means the fast path is
#: bit-identical even on the adversarial recovery paths.
FAULT_SEED_TIMINGS = {
    "dice/workflow": 8.120559969866665,
    "dice/script": 8.2103241998,
    "wef/workflow": 258.4677945387333,
    "wef/script": 336.2067139711333,
    "gotta/workflow": 63.54263398720341,
    "gotta/script": 146.53636422480747,
    "kge/workflow": 14.977701228366675,
    "kge/script": 21.649590524133334,
    "gotta@4/script": 395.2392738549409,
}

SCHEDULE = FaultSchedule.generate(
    seed=1234, horizon_s=60.0, tasks=2, operators=1, nodes=1, links=1, replicas=1,
)


def test_all_tasks_bit_identical_under_fault_schedule():
    assert seed_timings(slots=[(faults_injected, SCHEDULE)]) == FAULT_SEED_TIMINGS


# -- ordering property ----------------------------------------------------------

#: ``(delay, via_succeed)``: a timeout after ``delay``, or — when
#: ``via_succeed`` — an ``event().succeed()`` fired ``delay`` seconds in.
events = st.lists(
    st.tuples(
        st.one_of(
            st.just(0.0),
            st.sampled_from([0.5, 1.0, 1.0, 2.5]),  # force plenty of ties
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False, width=16),
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=80,
)


def _schedule_soup(env, items):
    """Schedule ``items`` through the public API.

    Timeouts land in ``_tail`` or, when out of order, the heap; succeeded
    events land in ``_immediate`` at the time they fire.  Returns the
    completion log and each item's ``(time, sequence)`` key, read from
    the kernel's sequence counter the moment the item is scheduled.
    """
    completed, keys = [], {}
    for index, (delay, via_succeed) in enumerate(items):
        record = lambda ev, i=index: completed.append(i)
        if via_succeed:
            gate = env.event()
            gate.add_callback(record)

            def fire(_, gate=gate, i=index):
                gate.succeed(i)
                keys[i] = (env.now, env._sequence)

            if delay == 0.0:
                fire(None)
            else:
                env.timeout(delay).add_callback(fire)
        else:
            env.timeout(delay, index).add_callback(record)
            keys[index] = (env.now + delay, env._sequence)
    return completed, keys


@settings(max_examples=150, deadline=None)
@given(items=events)
def test_events_complete_in_time_sequence_order(items):
    """The triple queue must order exactly like one global heap.

    Schedules a soup of timeouts and succeeded events — duplicate
    delays, zero delays, out-of-order delays, wakeups triggered mid-run —
    and records the completion order.  It must equal the items sorted by
    their ``(time, sequence)`` keys.
    """
    env = Environment()
    completed, keys = _schedule_soup(env, items)
    env.run()
    assert completed == sorted(keys, key=keys.__getitem__)
    assert len(completed) == len(items)


@settings(max_examples=150, deadline=None)
@given(items=events, boundary=st.sampled_from([0.0, 0.5, 1.0, 3.0, 20.0]))
def test_peek_and_until_agree_with_global_order(items, boundary):
    """``run(until=T)`` processes exactly the events with time <= T."""
    env = Environment()
    completed, keys = _schedule_soup(env, items)
    env.run(until=boundary)
    expected = sorted(
        (i for i, (when, _) in keys.items() if when <= boundary),
        key=keys.__getitem__,
    )
    assert completed == expected
    assert env.now == boundary
    assert env.peek() > boundary
