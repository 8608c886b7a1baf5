"""Count pin: ``charge`` is the one caller of ``Node.compute``.

Every vCPU second either engine or the job service pays goes through
``repro.cluster.charge``.  A traced run of every paper task under both
paradigms at the task table's pinned (smallest) scale, plus a small
job-service flood, is watched with ``sys.setprofile``: each frame of
``Node.compute`` must have been entered from the charge generator.  So
are the two exactness runs, which reach every faulted and cached charge
(checkpoint, restart, cache hit, the rayx completion checkpoint).
The same file pins how a ``Mechanism`` renders, which must not vary
across the supported Pythons.
"""

import json
import sys

import pytest

from repro.cluster import Mechanism, Node, charge
from repro.config import JobsConfig
from repro.jobs import JobService
from repro.obs import tracing
from tests.support.body_path import observe as observe_script
from tests.support.cells import PINNED, matrix, run
from tests.support.charge_path import observe as observe_workflow

FLOOD = JobsConfig(
    enabled=True, seed=3, rate_per_s=30.0, horizon_s=2.0, tenants=3,
    duration_s=0.5,
)


def compute_callers(run):
    """The code objects that entered ``Node.compute`` while ``run()`` ran."""
    callers = []
    # An outer profiler (a reachability run, say) keeps seeing every
    # call and is back in place afterwards.
    outer = sys.getprofile()

    def profile(frame, event, arg):
        if outer is not None:
            outer(frame, event, arg)
        if event == "call" and frame.f_code is Node.compute.__code__:
            callers.append(frame.f_back.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(outer)
    return callers


@pytest.mark.parametrize("cell, paradigm", matrix(PINNED.values()))
def test_every_task_holds_vcpus_only_through_charge(cell, paradigm):
    callers = compute_callers(lambda: run(cell, paradigm, slots=[(tracing, None)]))
    assert callers, "the run held no vCPUs; the pin watches nothing"
    assert {code.co_name for code in callers} == {"charge"}
    assert all(code is charge.__code__ for code in callers)


def test_job_service_holds_vcpus_only_through_charge():
    summaries = []
    callers = compute_callers(lambda: summaries.append(JobService(FLOOD).simulate()))
    assert summaries[0]["counts"]["completed"] == summaries[0]["jobs"] > 0
    assert callers
    assert all(code is charge.__code__ for code in callers)


@pytest.mark.parametrize(
    "observe", [observe_workflow, observe_script], ids=["workflow", "script"]
)
def test_faulted_cached_runs_hold_vcpus_only_through_charge(observe):
    callers = compute_callers(observe)
    assert callers
    assert all(code is charge.__code__ for code in callers)


@pytest.mark.parametrize("member", list(Mechanism), ids=lambda m: m.value)
def test_a_mechanism_renders_as_its_value(member):
    assert f"{member}" == str(member) == member.value
    assert f"{member:>20}" == f"{member.value:>20}"
    assert json.dumps(member) == json.dumps(member.value)
    assert member == member.value


def test_mechanism_values_are_the_span_categories_charges_open():
    assert [m.value for m in Mechanism] == [
        "compute", "serialization", "cache", "faults.recovery",
    ]
