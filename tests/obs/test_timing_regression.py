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

import pytest

from repro.cache import cached
from repro.config import CacheConfig, MemoryConfig
from repro.datasets.fsqa import generate_fsqa
from repro.datasets.maccrobat import generate_maccrobat
from repro.datasets.wildfire import generate_wildfire_tweets
from repro.elastic import elastic_enabled
from repro.faults import FaultSchedule, faults_injected
from repro.mem import memory_managed
from repro.obs import NULL_TRACER, Tracer, tracing
from repro.sched import scheduling
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


def _run_all(each=None):
    """Every pinned task's virtual elapsed time, by key.

    ``each``, if given, is a zero-argument callable returning a context
    manager entered around every individual task run — subsystem pin
    suites use it to give each task a fresh isolated installation
    (e.g. ``tests/cache`` runs each task under its own empty cache,
    since a *shared* cache legitimately hits across tasks).
    """
    from contextlib import nullcontext

    if each is None:
        each = nullcontext
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
