"""Job model: spec validation, the state machine, JSON round-trips."""

import pytest

from repro.config import GIB
from repro.errors import InvalidJobTransition
from repro.jobs import (
    ADMITTED,
    CANCELLED,
    COMPLETED,
    FAILED,
    QUEUED,
    RUNNING,
    STATES,
    TERMINAL_STATES,
    Job,
    JobSpec,
)
from repro.jobs.model import TRANSITIONS


def make_job(spec=None, submitted_s=1.0):
    return Job("job-000000", spec or JobSpec(), submitted_s)


# -- spec ---------------------------------------------------------------------


def test_spec_defaults():
    spec = JobSpec()
    assert spec.tenant == "tenant-0"
    assert spec.body == "profile"
    assert spec.cpus == 1
    assert spec.ram_bytes == 1 * GIB
    assert spec.duration_s == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tenant": ""},
        {"body": ""},
        {"cpus": 0},
        {"cpus": -1},
        {"ram_bytes": -1},
        {"duration_s": 0.0},
        {"duration_s": -2.0},
    ],
)
def test_spec_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        JobSpec(**kwargs)


@pytest.mark.parametrize("tenant", ["a//b", "/a", "a/", "/", "team//"])
def test_spec_rejects_empty_hierarchy_segments(tenant):
    # Regression: these were accepted, and fair-share then charged a
    # ledger level named "" or "a/" shared by unrelated tenants.
    with pytest.raises(ValueError, match="tenant must be non-empty"):
        JobSpec(tenant=tenant)
    # A hand-edited snapshot fails at load, before it reaches a ledger.
    doc = {**JobSpec().to_json(), "tenant": tenant}
    with pytest.raises(ValueError, match="tenant must be non-empty"):
        JobSpec.from_json(doc)
    with pytest.raises(ValueError, match="tenant must be non-empty"):
        Job.from_json({**make_job().to_json(), "spec": doc})


def test_spec_json_round_trip():
    spec = JobSpec(
        tenant="team-a/alice", body="dice/script", cpus=4,
        ram_bytes=2 * GIB, duration_s=3.5,
    )
    assert JobSpec.from_json(spec.to_json()) == spec


# -- state machine ------------------------------------------------------------


def test_happy_path_records_timestamps():
    job = make_job(submitted_s=1.0)
    assert job.state == QUEUED
    assert not job.terminal
    assert job.queue_latency_s is None

    job.admit(3.0, "worker-2")
    assert job.state == ADMITTED
    assert job.node == "worker-2"
    assert job.queue_latency_s == 2.0

    job.start(3.0)
    assert job.state == RUNNING

    job.complete(4.5, result="payload")
    assert job.state == COMPLETED
    assert job.terminal
    assert job.finished_s == 4.5
    assert job.result == "payload"


def test_fail_and_cancel_reachable_from_every_nonterminal_state():
    for state in (QUEUED, ADMITTED, RUNNING):
        assert FAILED in TRANSITIONS[state]
        assert CANCELLED in TRANSITIONS[state]
    for state in TERMINAL_STATES:
        assert TRANSITIONS[state] == frozenset()


def test_transition_map_covers_every_state():
    assert set(TRANSITIONS) == set(STATES)


@pytest.mark.parametrize(
    "walk",
    [
        lambda job: job.start(0.0),            # queued -> running skips admit
        lambda job: job.complete(0.0),         # queued -> completed
        lambda job: (job.admit(0.0, "n"), job.complete(0.0)),  # skip start
    ],
)
def test_illegal_transitions_raise(walk):
    job = make_job()
    with pytest.raises(InvalidJobTransition):
        walk(job)


def test_terminal_states_are_final():
    job = make_job()
    job.admit(0.0, "n")
    job.start(0.0)
    job.fail(1.0, "boom")
    assert job.error == "boom"
    for poke in (
        lambda: job.admit(2.0, "n"),
        lambda: job.start(2.0),
        lambda: job.complete(2.0),
        lambda: job.cancel(2.0),
    ):
        with pytest.raises(InvalidJobTransition):
            poke()


def test_requeue_resets_in_flight_job():
    job = make_job(submitted_s=1.0)
    job.admit(2.0, "worker-1")
    job.start(2.0)
    job.requeue()
    assert job.state == QUEUED
    assert job.node is None
    assert job.admitted_s is None
    assert job.started_s is None
    assert job.submitted_s == 1.0  # submission time survives the reset


def test_requeue_refuses_terminal_jobs():
    job = make_job()
    job.cancel(0.0)
    with pytest.raises(InvalidJobTransition):
        job.requeue()


# -- save / load --------------------------------------------------------------


def test_job_json_round_trip_preserves_state_and_stamps():
    job = make_job(submitted_s=1.0)
    job.admit(2.0, "worker-3")
    job.start(2.0)
    job.complete(5.0, result=object())  # runtime-only, must not serialize
    doc = job.to_json()
    assert "result" not in doc and "_body_fn" not in doc
    clone = Job.from_json(doc)
    assert clone.job_id == job.job_id
    assert clone.spec == job.spec
    assert clone.state == COMPLETED
    assert clone.node == "worker-3"
    assert (clone.submitted_s, clone.admitted_s, clone.started_s,
            clone.finished_s) == (1.0, 2.0, 2.0, 5.0)
    assert clone.result is None


def test_job_from_json_rejects_unknown_state():
    doc = make_job().to_json()
    doc["state"] = "paused"
    with pytest.raises(ValueError, match="paused"):
        Job.from_json(doc)
