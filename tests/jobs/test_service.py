"""The job service: admission, quotas, backpressure, save/load, telemetry."""

import pytest

from repro.config import GIB, JobsConfig
from repro.errors import InvalidJobTransition, JobQueueFull
from repro.jobs import JobResult, JobService, JobSpec, percentile
from repro.obs import Tracer, tracing


def profile(duration_s=1.0, **kwargs):
    return JobSpec(duration_s=duration_s, **kwargs)


# -- percentile ---------------------------------------------------------------


def test_percentile_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 100) == 100.0
    assert percentile([5.0], 99) == 5.0
    assert percentile([], 50) is None
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# -- single jobs --------------------------------------------------------------


def test_single_job_runs_to_completion():
    service = JobService()
    job = service.run_job(profile(2.5))
    assert job.state == "completed"
    assert job.queue_latency_s == 0.0
    assert service.env.now == 2.5
    assert isinstance(job.result, JobResult)
    assert service.queue.drained


def test_body_fn_override_wins_over_registry():
    service = JobService()
    job = service.run_job(
        profile(), body_fn=lambda spec: JobResult(duration_s=0.5, value=41 + 1)
    )
    assert job.result.value == 42
    assert service.env.now == 0.5


def test_fail_body_reaches_failed_state_and_frees_resources():
    service = JobService()
    job = service.run_job(JobSpec(body="fail"))
    assert job.state == "failed"
    assert "JobBodyError" in job.error
    assert service.running == 0
    assert all(held == 0 for held in service._cpus_held.values())
    assert all(node.ram_used == 0 for node in service.cluster.workers)


def test_impossible_demand_fails_immediately_not_deadlocks():
    service = JobService()
    job = service.submit(profile(cpus=99))
    assert job.state == "failed"
    assert "exceeds every node" in job.error


def test_demand_above_tenant_quota_fails_immediately():
    service = JobService(JobsConfig(quota_cpus=2))
    job = service.submit(profile(cpus=4))
    assert job.state == "failed"
    assert "quota" in job.error


def test_cancel_queued_only():
    service = JobService()
    job = service.submit(profile())
    cancelled = service.cancel(job.job_id)
    assert cancelled.state == "cancelled"
    done = service.run_job(profile())
    with pytest.raises(InvalidJobTransition):
        service.cancel(done.job_id)


def test_queue_capacity_rejects_loudly():
    service = JobService(JobsConfig(max_queue=1))
    service.submit(profile())
    with pytest.raises(JobQueueFull):
        service.submit(profile())
    assert service.queue.rejected == 1


# -- admission control --------------------------------------------------------


def test_running_quota_serializes_one_tenants_jobs():
    service = JobService(JobsConfig(quota_running=1))
    for _ in range(3):
        service.submit(profile(1.0))
    service.run_pending()
    # One at a time: the makespan is the sum, not the max.
    assert service.env.now == 3.0
    assert service.counts()["completed"] == 3
    assert service.blocked["quota"] > 0


def test_quota_blocks_one_tenant_not_the_cluster():
    service = JobService(JobsConfig(quota_running=1))
    for _ in range(2):
        service.submit(profile(1.0, tenant="greedy"))
    service.submit(profile(1.0, tenant="patient"))
    service.run_pending()
    # greedy serializes (2s) but patient ran alongside the first.
    assert service.env.now == 2.0
    assert service.counts()["completed"] == 3


def drain_counting_share_keys(depth):
    """Drain a pre-loaded 8-tenant flood; count dispatches and DRF key evaluations."""
    tenants = 8
    service = JobService(JobsConfig(policy="drf"))
    fs = service.fairshare
    share_key, merge = fs.share_key, fs.merge
    keys, dispatched_tenants = [], []
    fs.share_key = lambda tenant: keys.append(tenant) or share_key(tenant)
    fs.merge = lambda streams: dispatched_tenants.append(len(streams)) or merge(streams)
    for index in range(depth):
        service.submit(profile(1.0, tenant=f"tenant-{index % tenants}", cpus=2))
    service.run_pending()
    assert service.counts()["completed"] == depth
    assert service.peak_queue_depth == depth
    # Every dispatch ends in one admission or one head-of-line block ...
    assert len(dispatched_tenants) == depth + service.blocked["capacity"]
    # ... and costs one key per tenant that has a job waiting, not one
    # per waiting job.
    assert len(keys) == sum(dispatched_tenants)
    assert max(dispatched_tenants) == tenants
    return len(keys) / depth


def test_dispatch_cost_does_not_grow_with_queue_depth():
    # A count pin, not a wall-clock one.  The whole-queue sort this
    # replaced evaluated a key per *waiting job* per dispatch: ~4x more
    # per admitted job at 4x the depth.
    shallow = drain_counting_share_keys(200)
    deep = drain_counting_share_keys(800)
    assert shallow <= 8.5 and deep <= 8.5  # 8 tenants x (1 + 1 block per 16-job wave)
    assert deep / shallow < 1.02


def test_cpu_capacity_blocks_then_drains():
    # 4 workers x 8 vCPUs: five 8-vCPU jobs need two waves.
    service = JobService()
    for _ in range(5):
        service.submit(profile(1.0, cpus=8, ram_bytes=0))
    service.run_pending()
    assert service.env.now == 2.0
    assert service.counts()["completed"] == 5
    assert service.blocked["capacity"] > 0
    assert service.blocked["backpressure"] == 0


def test_ram_watermark_backpressure_blocks_then_drains():
    # 64 GiB nodes at a 0.5 watermark admit one 30 GiB job each but
    # never two (60 GiB > 32 GiB ceiling): 8 jobs need two waves.
    service = JobService(JobsConfig(admission_watermark=0.5))
    for _ in range(8):
        service.submit(profile(1.0, cpus=1, ram_bytes=30 * GIB))
    service.run_pending()
    assert service.env.now == 2.0
    assert service.counts()["completed"] == 8
    assert service.blocked["backpressure"] > 0
    assert all(node.ram_used == 0 for node in service.cluster.workers)


def test_watermark_defaults_to_memory_policy():
    service = JobService()
    assert (
        service.admission_watermark
        == service.cluster.memory.config.admission_watermark
    )
    override = JobService(JobsConfig(admission_watermark=0.25))
    assert override.admission_watermark == 0.25


@pytest.mark.parametrize("placement", ["round_robin", "least_loaded", "drf"])
def test_every_placement_policy_drains_the_same_workload(placement):
    service = JobService(JobsConfig(placement=placement))
    for i in range(10):
        service.submit(profile(1.0, cpus=4, tenant=f"tenant-{i % 3}"))
    service.run_pending()
    assert service.counts()["completed"] == 10
    assert service.queue.drained


def test_a_fallback_admission_is_one_placement():
    # round_robin picks blind to load, so a 6-vCPU job it sends to a
    # busy 8-vCPU worker falls back to the node admission found free.
    service = JobService(JobsConfig(placement="round_robin", policy="fifo"))
    scheduler = service.scheduler
    admitted = []
    admit = service._admit

    def checked_admit(job, node):
        admit(job, node)
        admitted.append(job)
        for name, account in scheduler.accounts.items():
            running = [j for j in admitted if j.node == name and not j.terminal]
            assert account.outstanding == len(running), name
        assert scheduler.placements == len(admitted)

    service._admit = checked_admit
    for duration_s in [5, 1, 5, 5, 1, 1, 1, 1]:
        service.submit(profile(duration_s, cpus=6, ram_bytes=0))
    service.run_pending()
    assert service.counts()["completed"] == 8
    assert service.blocked["placement"] > 0  # the fallback ran
    assert scheduler.placements == 8
    assert all(account.outstanding == 0 for account in scheduler.accounts.values())


# -- traffic runs -------------------------------------------------------------

TRAFFIC = JobsConfig(
    enabled=True, seed=3, rate_per_s=30.0, horizon_s=5.0, tenants=3,
    duration_s=0.5,
)


def test_simulate_is_deterministic():
    first = JobService(TRAFFIC).simulate()
    second = JobService(TRAFFIC).simulate()
    assert first == second
    assert first["jobs"] > 0
    assert first["counts"]["completed"] == first["jobs"]


def test_summary_shape_and_consistency():
    summary = JobService(TRAFFIC).simulate()
    assert set(summary["tenants"]) <= {f"tenant-{i}" for i in range(3)}
    total = sum(s["submitted"] for s in summary["tenants"].values())
    assert total == summary["jobs"]
    assert summary["p99_queue_s"] >= summary["p50_queue_s"] >= 0.0
    assert summary["peak_queue_depth"] >= 1
    assert summary["virtual_jobs_per_s"] > 0.0


def test_open_loop_rejections_do_not_stop_traffic():
    config = JobsConfig(
        enabled=True, seed=3, rate_per_s=30.0, horizon_s=5.0,
        duration_s=0.5, cpus=8, max_queue=5,
    )
    summary = JobService(config).simulate()
    assert summary["rejected"] > 0
    assert summary["jobs"] + summary["rejected"] > summary["jobs"]
    assert summary["counts"]["completed"] == summary["jobs"]


# -- save / load --------------------------------------------------------------


def test_save_and_resume_queued_jobs(tmp_path):
    service = JobService()
    for _ in range(3):
        service.submit(profile(1.0))
    path = service.save(tmp_path / "service.json")
    resumed = JobService.resume(path)
    assert resumed.requeued == 0  # they were still queued, not in flight
    resumed.run_pending()
    assert resumed.counts()["completed"] == 3


def test_resume_requeues_in_flight_jobs():
    service = JobService()
    job = service.submit(profile(1.0))
    job.admit(0.0, "worker-0")  # snapshot catches it mid-admission
    snapshot = service.snapshot()
    resumed = JobService.resume(snapshot)
    assert resumed.requeued == 1
    resumed.run_pending()
    assert resumed.queue.get(job.job_id).state == "completed"


def test_resume_continues_the_virtual_clock():
    service = JobService()
    service.run_job(profile(2.0))
    resumed = JobService.resume(service.snapshot())
    assert resumed.env.now == 2.0
    resumed.submit(profile(1.0))
    resumed.run_pending()
    assert resumed.env.now == 3.0


# -- telemetry ----------------------------------------------------------------


def test_jobs_telemetry_flows_through_obs():
    with tracing(Tracer()) as tracer:
        service = JobService(TRAFFIC)
        summary = service.simulate()
    metrics = tracer.metrics
    assert metrics.total("jobs.submitted") == summary["jobs"]
    assert metrics.total("jobs.admitted") == summary["counts"]["completed"]
    assert metrics.total("jobs.completed") == summary["counts"]["completed"]
    spans = [s for s in tracer.spans if s.category == "jobs.job"]
    assert len(spans) == summary["jobs"]
    assert spans[0].attrs["tenant"].startswith("tenant-")
    assert spans[0].attrs["state"] == "completed"


def test_untraced_runs_emit_nothing_and_match_traced_outcomes():
    plain = JobService(TRAFFIC).simulate()
    with tracing(Tracer()):
        traced = JobService(TRAFFIC).simulate()
    assert plain == traced
