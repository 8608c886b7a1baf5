"""Properties of the job service: multiplexing changes *when*, never *what*.

Two contracts, sampled over admission policy, placement policy, quota
configuration, engine paradigm and injected fault schedules:

* **dormant invariant**: a task run submitted as a job produces output
  rows and a virtual elapsed time identical to running the task
  directly — under any quota/fair-share config and any fault schedule
  (the body executes on its own fresh cluster either way);
* **conservation**: open-loop traffic always drains to terminal
  states, and jobs are conserved — every submission ends completed,
  failed or cancelled, with rejections only ever caused by an explicit
  queue bound;
* **admission order**: the incremental per-tenant merge admits in
  exactly the order the whole-queue scan-and-sort it replaced did.
  That implementation survives here, and only here, as the oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GIB, JobsConfig
from repro.datasets.maccrobat import generate_maccrobat
from repro.faults import FaultSchedule, faults_injected
from repro.jobs import Arrival, FairShare, JobQueue, JobService, JobSpec
from repro.tasks.base import fresh_cluster
from repro.tasks.dice.script import run_dice_script
from repro.tasks.dice.workflow import run_dice_workflow

configs = st.builds(
    JobsConfig,
    policy=st.sampled_from(["fifo", "drf"]),
    placement=st.sampled_from(["round_robin", "least_loaded", "drf"]),
    quota_running=st.one_of(st.none(), st.integers(1, 3)),
    quota_cpus=st.one_of(st.none(), st.just(8)),
)

schedules = st.one_of(
    st.none(),  # a clean run is a degenerate schedule
    st.builds(
        FaultSchedule.generate,
        seed=st.integers(0, 2**16),
        horizon_s=st.just(8.0),
        tasks=st.integers(0, 2),
        operators=st.integers(0, 2),
        nodes=st.integers(0, 1),
        replicas=st.integers(0, 1),
    ),
)

RUNNERS = {
    "dice/script": run_dice_script,
    "dice/workflow": run_dice_workflow,
}


@settings(max_examples=6, deadline=None)
@given(
    config=configs,
    body=st.sampled_from(sorted(RUNNERS)),
    schedule=schedules,
)
def test_job_outputs_equal_direct_task_run(config, body, schedule):
    def both():
        direct = RUNNERS[body](fresh_cluster(), generate_maccrobat(4))
        job = JobService(config).run_job(JobSpec(body=body))
        return direct, job

    if schedule is not None:
        with faults_injected(schedule):
            direct, job = both()
    else:
        direct, job = both()
    assert job.state == "completed", job.error
    assert job.result.run.output.rows == direct.output.rows
    assert job.result.run.elapsed_s == direct.elapsed_s


@settings(max_examples=10, deadline=None)
@given(
    config=st.builds(
        JobsConfig,
        enabled=st.just(True),
        seed=st.integers(0, 2**16),
        rate_per_s=st.floats(5.0, 40.0),
        horizon_s=st.just(4.0),
        tenants=st.integers(1, 6),
        cpus=st.integers(1, 8),
        duration_s=st.floats(0.1, 1.0),
        burst=st.floats(0.0, 2.0),
        burst_period_s=st.just(2.0),
        diurnal=st.floats(0.0, 1.0),
        diurnal_period_s=st.just(8.0),
        policy=st.sampled_from(["fifo", "drf"]),
        placement=st.sampled_from(["round_robin", "least_loaded", "drf"]),
        quota_running=st.one_of(st.none(), st.integers(1, 4)),
        max_queue=st.one_of(st.none(), st.integers(10, 50)),
    )
)
def test_traffic_always_drains_and_conserves_jobs(config):
    service = JobService(config)
    summary = service.simulate()
    counts = summary["counts"]
    assert service.queue.drained
    assert counts["queued"] == counts["admitted"] == counts["running"] == 0
    terminal = counts["completed"] + counts["failed"] + counts["cancelled"]
    assert terminal == summary["jobs"]
    assert counts["failed"] == 0  # profile bodies never fail
    if config.max_queue is None:
        assert summary["rejected"] == 0
    per_tenant = sum(s["submitted"] for s in summary["tenants"].values())
    assert per_tenant == summary["jobs"]


# -- admission order: the merge against the scan-and-sort oracle ---------------

#: 1-3 hierarchy levels, with shared groups so group-level shares tie.
TENANTS = [
    "solo", "lone", "org/a", "org/b", "lab/a", "org/team/x", "org/team/y",
    "lab/team/x",
]
tenant_names = st.sampled_from(TENANTS)


def scan_pending(queue):
    """The old ``JobQueue.pending()``: a state scan of the whole history."""
    return [job for job in queue if job.state == "queued"]


@settings(max_examples=60, deadline=None)
@given(
    policy=st.sampled_from(["fifo", "drf"]),
    # Few distinct demands on a small cluster: dominant shares collide.
    charges=st.lists(
        st.tuples(tenant_names, st.sampled_from([1, 2]), st.sampled_from([1, 2])),
        max_size=8,
    ),
    submitted=st.lists(st.tuples(tenant_names, st.booleans()), max_size=40),
)
def test_merge_equals_the_whole_queue_sort(policy, charges, submitted):
    fs = FairShare(policy=policy, total_cpus=8, total_ram_bytes=8 * GIB)
    ledger = JobQueue()
    for tenant, cpus, ram_gib in charges:
        fs.charge(
            ledger.submit(JobSpec(tenant=tenant, cpus=cpus, ram_bytes=ram_gib * GIB), 0.0)
        )
    queue = JobQueue()
    for tenant, leaves in submitted:
        job = queue.submit(JobSpec(tenant=tenant), now=0.0)
        if leaves:
            job.cancel(0.0)
    pending = scan_pending(queue)
    expected = (
        pending
        if policy == "fifo"
        else sorted(pending, key=lambda job: fs.share_key(job.spec.tenant))
    )
    assert list(fs.merge(queue.streams)) == expected
    assert fs.ordering(pending) == expected
    assert queue.pending() == pending and queue.depth == len(pending)


class ScanQueue(JobQueue):
    """The replaced queue views: state scans over every job ever seen."""

    def pending(self):
        return scan_pending(self)

    @property
    def depth(self):
        return len(scan_pending(self))


class ScanAndSortService(JobService):
    """Reference service: re-scan and re-sort the queue on every dispatch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queue.__class__ = ScanQueue  # also on the queue resume() builds

    def _admit_pending(self):
        fs = self.fairshare
        while True:
            pending = self.queue.pending()
            if not pending:
                return
            if fs.policy == "drf":
                pending = sorted(pending, key=lambda job: fs.share_key(job.spec.tenant))
            admitted = False
            for job in pending:
                if fs.quota_blocked(job) is not None:
                    self._note_blocked("quota", job)
                    continue
                node = self._fitting_node(job)
                if node is None:
                    return
                self._admit(job, node)
                admitted = True
                break
            if not admitted:
                return


def observe(service):
    log = [
        (job.job_id, job.state, job.admitted_s, job.node, job.finished_s)
        for job in service.queue
    ]
    return log, service.summary()["blocked"], service.peak_queue_depth


def replay(service_cls, config, arrivals, cancel_at_s, cancel_every, snapshot_at_s):
    """Run traffic with a mid-run cancel sweep; resume a mid-run snapshot."""
    service = service_cls(config)
    snapshots = []

    def cancel_sweep():
        yield service.env.timeout(cancel_at_s)
        for job in scan_pending(service.queue)[::cancel_every]:
            service.cancel(job.job_id)

    def take_snapshot():
        yield service.env.timeout(snapshot_at_s)
        snapshots.append(service.snapshot())

    service.env.process(cancel_sweep())
    service.env.process(take_snapshot())
    service.simulate(list(arrivals))
    observed = [observe(service)]
    for snapshot in snapshots:  # empty when the run drained first
        resumed = service_cls.resume(snapshot)
        resumed.simulate([a for a in arrivals if a.time_s > snapshot["now"]])
        observed.append((resumed.requeued, observe(resumed)))
    return observed


@settings(max_examples=25, deadline=None)
@given(
    config=st.builds(
        JobsConfig,
        policy=st.sampled_from(["fifo", "drf"]),
        placement=st.sampled_from(["round_robin", "drf"]),
        quota_running=st.one_of(st.none(), st.integers(1, 4)),
        quota_cpus=st.one_of(st.none(), st.sampled_from([4, 8])),
        max_queue=st.one_of(st.none(), st.integers(10, 40)),
    ),
    traffic=st.lists(
        st.tuples(
            st.floats(0.0, 0.1),  # gap to the previous arrival
            tenant_names,
            st.sampled_from([1, 2, 4, 8]),  # mixed demands within a tenant
            st.floats(0.2, 2.0),
        ),
        min_size=1,
        max_size=80,
    ),
    cancel_at_s=st.floats(0.0, 3.0),
    cancel_every=st.integers(1, 4),
    snapshot_at_s=st.floats(0.0, 4.0),
)
def test_service_admits_exactly_as_the_scan_and_sort_reference(
    config, traffic, cancel_at_s, cancel_every, snapshot_at_s
):
    arrivals, now = [], 0.0
    for gap, tenant, cpus, duration_s in traffic:
        now += gap
        arrivals.append(
            Arrival(now, JobSpec(tenant=tenant, cpus=cpus, duration_s=duration_s))
        )
    args = (config, arrivals, cancel_at_s, cancel_every, snapshot_at_s)
    assert replay(JobService, *args) == replay(ScanAndSortService, *args)
