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

from repro.datasets.fsqa import generate_fsqa
from repro.datasets.maccrobat import generate_maccrobat
from repro.datasets.wildfire import generate_wildfire_tweets
from repro.faults import FaultSchedule, faults_injected
from repro.sim import Environment
from repro.tasks.base import fresh_cluster
from repro.tasks.dice.script import run_dice_script
from repro.tasks.dice.workflow import run_dice_workflow
from repro.tasks.gotta.script import run_gotta_script
from repro.tasks.gotta.workflow import run_gotta_workflow
from repro.tasks.kge.common import make_kge_dataset
from repro.tasks.kge.script import run_kge_script
from repro.tasks.kge.workflow import run_kge_workflow
from repro.tasks.wef.script import run_wef_script
from repro.tasks.wef.workflow import run_wef_workflow

#: Virtual timings of every paper task under one fixed fault schedule,
#: recorded on the pre-optimization (single-heap) kernel.  Exact float
#: equality is intentional: retries, backoffs and checkpoint restores
#: amplify any ordering drift, so agreement here means the fast path is
#: bit-identical even on the adversarial recovery paths.
FAULT_SEED_TIMINGS = {
    "gotta/script-1": 146.53636422480747,
    "gotta/workflow-1": 63.54263398720341,
    "gotta/script-4": 395.2392738549409,
    "dice/script-4": 8.2103241998,
    "dice/workflow-4": 8.120559969866665,
    "kge/script": 21.649590524133334,
    "kge/workflow": 14.977701228366675,
    "wef/script": 336.2067139711333,
    "wef/workflow": 258.4677945387333,
}


def _schedule():
    return FaultSchedule.generate(
        seed=1234, horizon_s=60.0, tasks=2, operators=1, nodes=1, links=1,
        replicas=1,
    )


def test_all_tasks_bit_identical_under_fault_schedule():
    paras1 = generate_fsqa(1)
    paras4 = generate_fsqa(4)
    reports = generate_maccrobat(4)
    kge = make_kge_dataset(300, universe_size=1000)
    tweets = generate_wildfire_tweets(40)
    runners = {
        "gotta/script-1": lambda: run_gotta_script(fresh_cluster(), paras1),
        "gotta/workflow-1": lambda: run_gotta_workflow(fresh_cluster(), paras1),
        "gotta/script-4": lambda: run_gotta_script(fresh_cluster(), paras4),
        "dice/script-4": lambda: run_dice_script(fresh_cluster(), reports),
        "dice/workflow-4": lambda: run_dice_workflow(fresh_cluster(), reports),
        "kge/script": lambda: run_kge_script(fresh_cluster(), kge),
        "kge/workflow": lambda: run_kge_workflow(fresh_cluster(), kge),
        "wef/script": lambda: run_wef_script(fresh_cluster(), tweets),
        "wef/workflow": lambda: run_wef_workflow(fresh_cluster(), tweets),
    }
    timings = {}
    for key, run in runners.items():
        with faults_injected(_schedule()):
            timings[key] = run().elapsed_s
    assert timings == FAULT_SEED_TIMINGS


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
