"""Persistent queue: ordering, capacity, JSON snapshots, resume resets."""

import json

import pytest

from repro.errors import JobQueueFull, UnknownJob
from repro.jobs import JobQueue, JobSpec
from repro.jobs.queue import SNAPSHOT_VERSION


def test_ids_are_sequential_and_order_is_submission_order():
    queue = JobQueue()
    jobs = [queue.submit(JobSpec(), now=float(i)) for i in range(3)]
    assert [job.job_id for job in jobs] == [
        "job-000000", "job-000001", "job-000002",
    ]
    assert queue.jobs() == jobs
    assert queue.pending() == jobs
    assert len(queue) == 3


def test_get_by_id_and_unknown_raises():
    queue = JobQueue()
    job = queue.submit(JobSpec(), now=0.0)
    assert queue.get(job.job_id) is job
    with pytest.raises(UnknownJob, match="job-999999"):
        queue.get("job-999999")


def test_depth_counts_only_waiting_jobs():
    queue = JobQueue()
    first = queue.submit(JobSpec(), now=0.0)
    queue.submit(JobSpec(), now=0.0)
    assert queue.depth == 2
    first.admit(1.0, "worker-0")
    assert queue.depth == 1
    assert not queue.drained
    assert first not in queue.pending()


def test_drained_means_every_job_terminal():
    queue = JobQueue()
    job = queue.submit(JobSpec(), now=0.0)
    assert not queue.drained
    job.cancel(1.0)
    assert queue.drained


def test_capacity_bounds_waiting_jobs_not_history():
    queue = JobQueue(max_queue=2)
    first = queue.submit(JobSpec(), now=0.0)
    queue.submit(JobSpec(), now=0.0)
    with pytest.raises(JobQueueFull):
        queue.submit(JobSpec(), now=0.0)
    assert queue.rejected == 1
    # Terminal jobs stay in the queue (audit log) but free capacity.
    first.cancel(1.0)
    queue.submit(JobSpec(), now=1.0)
    assert queue.rejected == 1
    assert len(queue) == 3


def test_max_queue_must_be_positive():
    with pytest.raises(ValueError):
        JobQueue(max_queue=0)


# -- save / load --------------------------------------------------------------


def test_snapshot_round_trip(tmp_path):
    queue = JobQueue(max_queue=5)
    done = queue.submit(JobSpec(tenant="a"), now=0.0)
    done.admit(1.0, "worker-0")
    done.start(1.0)
    done.complete(2.0)
    queue.submit(JobSpec(tenant="b"), now=0.5)
    path = queue.save(tmp_path / "queue.json")
    loaded = JobQueue.load(path)
    assert loaded.max_queue == 5
    assert [job.job_id for job in loaded] == [job.job_id for job in queue]
    assert [job.state for job in loaded] == ["completed", "queued"]
    # New submissions continue the id sequence, never reuse ids.
    assert loaded.submit(JobSpec(), now=3.0).job_id == "job-000002"


def test_snapshot_version_mismatch_rejected():
    doc = JobQueue().to_json()
    doc["version"] = SNAPSHOT_VERSION + 1
    with pytest.raises(ValueError, match="snapshot version"):
        JobQueue.from_json(doc)


def test_requeue_nonterminal_resets_in_flight_only():
    queue = JobQueue()
    running = queue.submit(JobSpec(), now=0.0)
    running.admit(1.0, "worker-0")
    running.start(1.0)
    done = queue.submit(JobSpec(), now=0.0)
    done.cancel(1.0)
    waiting = queue.submit(JobSpec(), now=0.0)
    assert queue.requeue_nonterminal() == 1
    assert running.state == "queued" and running.node is None
    assert done.state == "cancelled"
    assert waiting.state == "queued"


# -- the waiting-jobs index ---------------------------------------------------


def assert_index_matches_state_scan(queue):
    scan = [job for job in queue if job.state == "queued"]
    assert queue.pending() == scan
    assert queue.depth == len(scan)
    streams = queue.streams
    assert all(streams.values()), "an emptied tenant stream must be dropped"
    assert {
        tenant: list(stream) for tenant, stream in streams.items()
    } == {
        tenant: [job for job in scan if job.spec.tenant == tenant]
        for tenant in {job.spec.tenant for job in scan}
    }


def test_index_follows_every_transition_whoever_makes_it():
    queue = JobQueue()

    def check():
        assert_index_matches_state_scan(queue)

    check()
    a0, b0, a1, b1, a2, c0 = (
        queue.submit(JobSpec(tenant=tenant), now=0.0)
        for tenant in ("a", "b", "a/x", "b", "a", "c")
    )
    check()
    # Transitions called on the Job directly, not through a service.
    a0.admit(1.0, "worker-0")
    check()
    a0.start(1.0)
    check()
    b1.cancel(1.5)  # leaves from behind its tenant's head
    check()
    a0.complete(2.0)
    check()
    a2.fail(2.0, "boom")  # queued -> failed
    check()
    b0.admit(2.0, "worker-1")
    check()
    b0.fail(2.5, "boom")  # admitted -> failed: was not queued, no change
    check()
    c0.admit(3.0, "worker-0")
    c0.start(3.0)
    late = queue.submit(JobSpec(tenant="c"), now=3.0)
    check()
    # A requeued job returns to its original position, ahead of `late`.
    c0.requeue()
    check()
    assert queue.streams["c"][0] is c0 and queue.pending() == [a1, c0, late]
    c0.requeue()  # already queued: a no-op for the index
    check()
    a1.admit(4.0, "worker-0")
    assert queue.requeue_nonterminal() == 1
    check()
    assert queue.pending() == [a1, c0, late]
    resumed = JobQueue.from_json(json.loads(json.dumps(queue.to_json())))
    assert_index_matches_state_scan(resumed)
    assert [job.job_id for job in resumed.pending()] == [
        job.job_id for job in queue.pending()
    ]
    resumed.get(late.job_id).cancel(5.0)
    assert_index_matches_state_scan(resumed)
    check()  # the two queues share nothing


def test_the_index_and_back_reference_are_never_serialized():
    queue = JobQueue()
    job = queue.submit(JobSpec(tenant="team/alice"), now=0.5)
    assert sorted(job.to_json()) == [
        "admitted_s", "error", "finished_s", "job_id", "node", "spec",
        "started_s", "state", "submitted_s",
    ]
    doc = queue.to_json()
    assert sorted(doc) == ["jobs", "max_queue", "next_id", "rejected", "version"]
    assert doc["version"] == SNAPSHOT_VERSION == 1
    assert JobQueue.from_json(doc).to_json() == doc
