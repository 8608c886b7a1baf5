"""Multi-tenant job service: ``repro.jobs``.

The paper compares the script and workflow paradigms one run at a
time, but the systems it studies are *services*: Texera hosts many
users' workflows on one shared deployment, and production script
clusters (Ray, Snakemake farms) queue many tenants' pipelines onto
shared machines.  ROADMAP names this the "millions of users" unlock.
This package is that control plane, built from the layers beneath it:

* :class:`JobSpec` / :class:`Job` — the submission model and its state
  machine (``queued -> admitted -> running -> completed | failed |
  cancelled``), JSON round-trippable;
* :class:`JobQueue` — the persistent queue: submission-ordered,
  optionally bounded, snapshot/resume through plain JSON files;
* :class:`FairShare` — per-tenant quotas plus admission ordering
  (``fifo`` or weighted hierarchical dominant-resource fairness);
* :class:`TrafficGenerator` — a seeded open-loop arrival stream
  (Poisson, diurnal sine, periodic bursts);
* :class:`JobService` — the dispatcher tying them together: fair-share
  ordering, quota checks, RAM backpressure at the :mod:`repro.mem`
  admission watermark, placement through :mod:`repro.sched` (the
  ``drf`` policy by default), ``jobs.*`` telemetry via
  :mod:`repro.obs`.

A service takes its config explicitly:

>>> from repro.jobs import JobService, parse_jobs_spec
>>> config = parse_jobs_spec("on,rate=50,tenants=8,policy=drf")
>>> summary = JobService(config).simulate()

or from the command line with ``python -m repro jobs SPEC`` /
``--jobs SPEC`` (``python -m repro jobs`` prints the grammar).

Dormant by default: nothing in the engines consults this package, and
a single job submitted by one tenant runs its body on a fresh cluster
exactly as a direct engine run would — bit-identical outputs and
virtual timings, pinned by ``tests/jobs/test_timing_pin.py``.
"""

from __future__ import annotations

from repro.config import JobsConfig
from repro.jobs.bodies import (
    JobResult,
    register_body,
    resolve_body,
)
from repro.jobs.fairshare import FairShare, TenantAccount, tenant_levels
from repro.jobs.model import (
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
from repro.jobs.queue import JobQueue
from repro.jobs.service import JobService, percentile
from repro.jobs.spec import parse_jobs_spec
from repro.jobs.traffic import Arrival, TrafficGenerator, merge_arrivals

__all__ = [
    "JobsConfig",
    "JobSpec",
    "Job",
    "JobQueue",
    "JobService",
    "JobResult",
    "FairShare",
    "TenantAccount",
    "tenant_levels",
    "TrafficGenerator",
    "Arrival",
    "merge_arrivals",
    "register_body",
    "resolve_body",
    "parse_jobs_spec",
    "percentile",
    "QUEUED",
    "ADMITTED",
    "RUNNING",
    "COMPLETED",
    "FAILED",
    "CANCELLED",
    "STATES",
    "TERMINAL_STATES",
]
