"""Compact CLI specs for the job service: ``--jobs "on,rate=50,policy=drf"``.

The grammar is the field table below; ``repro jobs`` prints it with the
defaults, and ``repro jobs SPEC`` prints the configuration a spec
expands to (and runs the traffic when it says ``on``).
"""

from __future__ import annotations

from repro.config import JobsConfig
from repro.errors import JobsSpecError
from repro.jobs.bodies import known_body
from repro.layer import Field, Grammar, choice, finite, size
from repro.sched import valid_policy

__all__ = [
    "JOBS_GRAMMAR",
    "parse_jobs_spec",
]

_body = choice(
    known_body, "unknown job body {!r} (see repro.jobs.bodies; 'gen' draws one per job)",
)
_placement = choice(
    valid_policy,
    "unknown placement policy {!r} (see 'repro sched' for the catalogue)",
)

JOBS_GRAMMAR = Grammar(
    noun="jobs",
    error=JobsSpecError,
    flags="run / don't run the traffic generator (default: off)",
    fields=(
        Field("seed", "seed", int, "N", "traffic-generator seed (default 0)"),
        Field("rate", "rate_per_s", finite, "JOBS_PER_S",
              "mean Poisson arrival rate (default 10)"),
        Field("horizon", "horizon_s", finite, "SECONDS",
              "arrival-generation horizon (default 60)"),
        Field("tenants", "tenants", int, "N", "tenant population (default 4)"),
        Field("burst", "burst", finite, "F",
              "burst amplitude: in-window rate x(1+F) (default 0)"),
        Field("burst_period", "burst_period_s", finite, "S",
              "burst window period (default 300)"),
        Field("burst_duty", "burst_duty", finite, "F",
              "burst duty cycle, fraction of period (default 0.1)"),
        Field("diurnal", "diurnal", finite, "F",
              "diurnal sine amplitude in [0,1] (default 0)"),
        Field("period", "diurnal_period_s", finite, "S",
              "diurnal period (default 86400)"),
        Field("policy", "policy", str, "NAME",
              "admission ordering: fifo or drf (default drf)"),
        Field("placement", "placement", _placement, "NAME",
              "node placement policy, see 'repro sched' (default drf)"),
        Field("quota_running", "quota_running", int, "N",
              "per-tenant cap on concurrently running jobs"),
        Field("quota_cpus", "quota_cpus", int, "N",
              "per-tenant cap on concurrently held vCPUs"),
        Field("quota_ram", "quota_ram_bytes", size, "SIZE",
              "per-tenant cap on concurrently held RAM"),
        Field("max_queue", "max_queue", int, "N",
              "queue capacity; beyond it submissions are rejected"),
        Field("cpus", "cpus", int, "N", "per-job vCPU demand (default 1)"),
        Field("ram", "ram_bytes", size, "SIZE",
              "per-job RAM demand (default 1gib)"),
        Field("duration", "duration_s", finite, "SECONDS",
              "mean profile-body duration (default 1.0)"),
        Field("body", "body", _body, "NAME",
              "job body, see repro.jobs.bodies (default profile)"),
        Field("admit", "admission_watermark", finite, "FRACTION",
              "RAM backpressure watermark (default: memory policy's)"),
    ),
    example="--jobs on,rate=50,tenants=8,policy=drf,quota_running=4",
    width=18,
)


def parse_jobs_spec(spec: str) -> JobsConfig:
    """Parse a ``--jobs`` spec string into a :class:`JobsConfig`.

    >>> parse_jobs_spec("on,rate=50,tenants=8").rate_per_s
    50.0
    """
    return JOBS_GRAMMAR.build(spec, JobsConfig)
