"""No layer may change simulated timings while dormant.

Three guarantees, all load-bearing for the paper reproduction:

* with nothing installed, every task accumulates virtual time
  **bit-identical** to the pre-observability seed (the constants below
  were recorded before the instrumentation existed);
* explicitly installing any layer's *dormant* value — the object is
  constructed and consulted on every run — changes no timing by one
  bit (one matrix over every install slot; the stronger per-layer
  cases live in ``tests/{mem,cache,jobs}/test_timing_pin.py``);
* enabling a tracer changes *nothing* — recording is bookkeeping only,
  so traced and untraced runs agree to the last bit as well.
"""

from contextlib import nullcontext
from functools import partial

import pytest

from repro.cache import cached
from repro.config import CacheConfig, MemoryConfig
from repro.datasets.fsqa import generate_fsqa
from repro.elastic import elastic_enabled
from repro.faults import FaultSchedule, faults_injected
from repro.mem import memory_managed
from repro.obs import NULL_TRACER, Tracer, tracing
from repro.paradigm import PARADIGMS
from repro.sched import scheduling
from repro.tasks import TASKS
from repro.tasks.base import fresh_cluster
from repro.tasks.gotta.script import run_gotta_script
from repro.tasks.kge.common import make_kge_dataset
from repro.tasks.kge.script import run_kge_script
from repro.tasks.kge.workflow import run_kge_workflow

#: Virtual timings recorded at the seed, before repro.obs existed.
#: Exact float equality is intentional: the simulation is
#: deterministic, and any drift means instrumentation leaked time.
SEED_TIMINGS = {
    "gotta/script-1": 144.76202222480745,
    "gotta/workflow-1": 63.28371245803674,
    "gotta/script-4": 394.96291672400747,
    "dice/script-4": 6.1191600006,
    "dice/workflow-4": 8.091464697066668,
    "kge/script": 20.96539552413334,
    "kge/workflow": 14.958064386766669,
    "wef/script": 268.78335006426664,
    "wef/workflow": 258.2124729179,
}


def _seed_key(task, paradigm):
    """``dice/script-4`` where the seed recorded the size, else ``kge/script``."""
    name = f"{task.name}/{paradigm}"
    sized = f"{name}-{task.pinned[0]}"
    return sized if sized in SEED_TIMINGS else name


#: (SEED_TIMINGS key, task, paradigm): every row of the task table under
#: both paradigms at its pinned scale — also what the ``<task>/<paradigm>``
#: job bodies run (``tests/jobs/test_timing_pin.py``).
PINNED_RUNS = [
    (_seed_key(task, paradigm), task, paradigm)
    for task in TASKS.values()
    for paradigm in PARADIGMS
]


def _run_all(each=None):
    """Every pinned task's virtual elapsed time, by key.

    ``each``, if given, is a zero-argument callable returning a context
    manager entered around every individual task run — subsystem pin
    suites use it to give each task a fresh isolated installation
    (e.g. ``tests/cache`` runs each task under its own empty cache,
    since a *shared* cache legitimately hits across tasks).
    """
    if each is None:
        each = nullcontext
    runners = {
        key: partial(task.run, paradigm, task.dataset(*task.pinned))
        for key, task, paradigm in PINNED_RUNS
    }
    # The one extra point: GOTTA's script beyond its pinned single paragraph.
    runners["gotta/script-4"] = partial(
        TASKS["gotta"].run, "script", TASKS["gotta"].dataset(4)
    )
    timings = {}
    for key, run in runners.items():
        with each():
            timings[key] = run().elapsed_s
    return timings


def test_null_tracer_timings_bit_identical_to_seed():
    assert _run_all() == SEED_TIMINGS


#: Every install slot, entered with its layer's dormant value.  Elastic
#: is installed *enabled*: direct runs build no job service, so no
#: autoscaler ever attaches.  ``repro.jobs`` has no slot (a service
#: takes its config explicitly).
DORMANT_INSTALLS = {
    "obs": lambda: tracing(NULL_TRACER),
    "faults": lambda: faults_injected(FaultSchedule.empty()),
    "sched": lambda: scheduling("round_robin"),
    "mem": lambda: memory_managed(MemoryConfig()),
    "cache": lambda: cached(CacheConfig()),
    "elastic": lambda: elastic_enabled("on,min=1,max=8,provision=3,interval=0.5"),
}


@pytest.mark.parametrize("layer", sorted(DORMANT_INSTALLS))
def test_installed_dormant_layer_timings_bit_identical_to_seed(layer):
    with DORMANT_INSTALLS[layer]():
        assert _run_all() == SEED_TIMINGS


def test_enabled_tracer_does_not_perturb_timings():
    with tracing(Tracer()):
        traced = _run_all()
    assert traced == SEED_TIMINGS


def test_capture_timeouts_does_not_perturb_timings():
    # The noisiest possible tracer setting still charges zero time.
    with tracing(Tracer(capture_timeouts=True)):
        key = "gotta/script-1"
        elapsed = run_gotta_script(fresh_cluster(), generate_fsqa(1)).elapsed_s
    assert elapsed == SEED_TIMINGS[key]


@pytest.mark.parametrize("paradigm", ["script", "workflow"])
def test_traced_output_rows_match_untraced(paradigm):
    dataset = make_kge_dataset(120, universe_size=600)
    runner = run_kge_script if paradigm == "script" else run_kge_workflow
    plain = runner(fresh_cluster(), dataset)
    with tracing(Tracer()):
        traced = runner(fresh_cluster(), dataset)
    assert traced.output.rows == plain.output.rows


def test_installed_empty_fault_schedule_timings_bit_identical():
    """An armed injector with nothing to inject charges zero time.

    ``faults_injected(FaultSchedule.empty())`` installs a real injector
    whose ``active`` flag is False — every engine checkpoint must
    short-circuit before touching the virtual clock, keeping all task
    timings bit-identical to the pre-faults seed.
    """
    with faults_injected(FaultSchedule.empty()) as injector:
        timings = _run_all()
    assert timings == SEED_TIMINGS
    assert injector.injected == 0
    assert injector.retries == 0
