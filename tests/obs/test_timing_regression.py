"""No layer may change simulated timings while dormant.

Three guarantees, all load-bearing for the paper reproduction:

* with nothing installed, every task accumulates virtual time
  **bit-identical** to the pre-observability seed (``SEED_TIMINGS`` in
  ``tests/support/cells.py`` were recorded before the instrumentation
  existed);
* explicitly installing any layer's *dormant* value — the object is
  constructed and consulted on every run — changes no timing by one
  bit (one matrix over every install slot; the stronger per-layer
  cases live in ``tests/{mem,cache,jobs}/test_timing_pin.py``);
* enabling a tracer changes *nothing* — recording is bookkeeping only,
  so traced and untraced runs agree to the last bit as well.
"""

import pytest

from repro.faults import FaultSchedule, faults_injected
from repro.obs import Tracer, tracing
from repro.tasks import fresh_cluster
from repro.tasks.kge import make_kge_dataset, run_kge_script, run_kge_workflow
from tests.support.cells import DORMANT_INSTALLS, SEED_TIMINGS, seed_timings


def test_null_tracer_timings_bit_identical_to_seed():
    assert seed_timings() == SEED_TIMINGS


@pytest.mark.parametrize("layer", sorted(DORMANT_INSTALLS))
def test_installed_dormant_layer_timings_bit_identical_to_seed(layer):
    assert seed_timings(slots=[DORMANT_INSTALLS[layer]]) == SEED_TIMINGS


def test_enabled_tracer_does_not_perturb_timings():
    assert seed_timings(slots=[(tracing, Tracer())]) == SEED_TIMINGS


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
        timings = seed_timings()
    assert timings == SEED_TIMINGS
    assert injector.injected == 0
    assert injector.retries == 0
