"""Fair-share experiment: FIFO vs DRF admission under asymmetric load.

The paper studies one user at a time; this extension asks the service
question: when a heavy tenant floods the shared cluster while a light
tenant trickles jobs in, what does admission ordering do to the light
tenant's queueing latency?

Two independently seeded open-loop streams (a flood and a trickle, see
:class:`repro.jobs.TrafficGenerator`) are merged into one arrival
sequence and replayed — identically — through a
:class:`repro.jobs.JobService` once per admission policy.  Under
``fifo`` the flood's backlog stands in front of every trickle job;
under ``drf`` the light tenant's near-zero dominant share moves its
jobs to the head of the queue each time capacity frees up, so its p99
queueing latency collapses while the flood (whose jobs dominate the
cluster either way) barely moves — the classic fairness-at-no-cost
result of dominant-resource fairness.

The report lists, per policy: per-tenant p99 queue latency, overall
throughput, and makespan.  Throughput and makespan must be identical
across policies (admission ordering shuffles *who waits*, not the
total work), which the experiment asserts.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import GIB, JobsConfig
from repro.errors import ExperimentError
from repro.jobs import JobService, TrafficGenerator, merge_arrivals
from repro.metrics import ExperimentReport

__all__ = ["run_fairshare"]

#: Tenants of the asymmetric workload.
HEAVY = "team-heavy/flood"
LIGHT = "team-light/trickle"
#: Each tenant's traffic-stream seed (independent streams, merged).
STREAM_SEEDS = {HEAVY: 11, LIGHT: 23}


def _streams(
    horizon_s: float,
    heavy_rate: float,
    light_rate: float,
    light_horizon_s: float = None,
):
    """Two seeded per-tenant streams, merged into one arrival list.

    ``light_horizon_s`` lets the trickle outlive the flood — the
    burst-then-tail shape the elasticity experiment (E10) replays.
    """
    heavy = TrafficGenerator(
        JobsConfig(
            seed=STREAM_SEEDS[HEAVY],
            rate_per_s=heavy_rate,
            horizon_s=horizon_s,
            tenants=1,
            cpus=4,
            ram_bytes=2 * GIB,
            duration_s=1.5,
        )
    ).arrivals()
    light = TrafficGenerator(
        JobsConfig(
            seed=STREAM_SEEDS[LIGHT],
            rate_per_s=light_rate,
            horizon_s=(
                light_horizon_s if light_horizon_s is not None else horizon_s
            ),
            tenants=1,
            cpus=1,
            ram_bytes=1 * GIB,
            duration_s=0.3,
        )
    ).arrivals()
    # The generators both draw "tenant-0"; rebrand per stream so the
    # fair-share ledger sees two hierarchical tenants.
    heavy = [replace(a, spec=replace(a.spec, tenant=HEAVY)) for a in heavy]
    light = [replace(a, spec=replace(a.spec, tenant=LIGHT)) for a in light]
    return merge_arrivals(heavy, light)


def run_fairshare(
    horizon_s: float = 30.0,
    heavy_rate: float = 18.0,
    light_rate: float = 2.0,
) -> ExperimentReport:
    """Per-tenant p99 queue latency, FIFO vs DRF, same arrivals."""
    report = ExperimentReport(
        "fairshare",
        "multi-tenant admission (repro.jobs): p99 queue latency when a "
        f"flood ({heavy_rate:g}/s, 4 vCPU jobs) and a trickle "
        f"({light_rate:g}/s, 1 vCPU jobs) share the cluster",
        x_label="policy",
    )
    arrivals = _streams(horizon_s, heavy_rate, light_rate)
    outcomes = {}
    for policy in ("fifo", "drf"):
        service = JobService(JobsConfig(enabled=True, policy=policy))
        summary = service.simulate(arrivals=list(arrivals))
        if not service.queue.drained:
            raise ExperimentError(f"{policy}: queue did not drain")
        outcomes[policy] = summary
        for tenant in (HEAVY, LIGHT):
            stats = summary["tenants"][tenant]
            report.add(
                f"p99-queue/{tenant.split('/')[0]}",
                policy,
                stats["p99_queue_s"] or 0.0,
            )
        report.add(
            "jobs-per-s", policy, summary["virtual_jobs_per_s"], unit="jobs/s"
        )
    fifo, drf = outcomes["fifo"], outcomes["drf"]
    if fifo["counts"]["completed"] != drf["counts"]["completed"]:
        raise ExperimentError(
            "admission ordering changed the number of completed jobs — "
            "it must only shuffle who waits"
        )
    light_fifo = fifo["tenants"][LIGHT]["p99_queue_s"] or 0.0
    light_drf = drf["tenants"][LIGHT]["p99_queue_s"] or 0.0
    if light_drf > light_fifo:
        raise ExperimentError(
            "DRF made the light tenant wait longer than FIFO did "
            f"({light_drf:.3f}s vs {light_fifo:.3f}s)"
        )
    report.notes.append(
        f"light tenant p99 queue: fifo {light_fifo:.3f}s -> drf "
        f"{light_drf:.3f}s; completed jobs identical "
        f"({drf['counts']['completed']}) — ordering shuffles who waits, "
        "not the total work"
    )
    report.notes.append(
        f"heavy tenant p99 queue: fifo "
        f"{(fifo['tenants'][HEAVY]['p99_queue_s'] or 0.0):.3f}s -> drf "
        f"{(drf['tenants'][HEAVY]['p99_queue_s'] or 0.0):.3f}s"
    )
    return report
