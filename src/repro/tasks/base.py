"""Shared plumbing for the four paper tasks.

Each task lives in its own subpackage with three modules:

* ``common.py`` — the task's data logic as pure functions (one source
  of truth for *what* is computed), a reference implementation used as
  the correctness oracle, and the task's calibrated cost constants;
* ``script.py`` — the script-paradigm implementation on
  :mod:`repro.rayx` (the paper's Jupyter Notebook + Ray side);
* ``workflow.py`` — the workflow-paradigm implementation on
  :mod:`repro.workflow` (the paper's Texera side).

Both implementations of a task produce the same rows — integration
tests assert it — while accumulating different virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.cluster import Cluster, build_cluster
from repro.config import ReproConfig, default_config
from repro.obs.tracer import Tracer
from repro.paradigm import PARADIGM_SCRIPT, PARADIGM_WORKFLOW
from repro.relational import Table
from repro.sim import Environment

__all__ = [
    "TaskRun",
    "fresh_cluster",
    "run_trace_of",
    "PARADIGM_SCRIPT",
    "PARADIGM_WORKFLOW",
]


@dataclass
class TaskRun:
    """Outcome of running one task under one paradigm."""

    task: str
    paradigm: str
    output: Table
    elapsed_s: float
    #: Parallelism setting (Ray num_cpus / Texera workers per operator).
    num_workers: int = 1
    #: Task-specific extras (losses, exact-match, operator count, ...).
    extras: Dict[str, Any] = field(default_factory=dict)
    #: The tracer that observed this run (None when tracing was off);
    #: feed it to :func:`repro.obs.format_breakdown` or
    #: :func:`repro.obs.write_chrome_trace`.
    trace: Optional[Tracer] = None

    def __repr__(self) -> str:
        return (
            f"<TaskRun {self.task}/{self.paradigm} "
            f"workers={self.num_workers} {self.elapsed_s:.2f}s "
            f"rows={len(self.output)}>"
        )


def fresh_cluster(
    config: Optional[ReproConfig] = None, tracer: Optional[Tracer] = None
) -> Cluster:
    """A new simulated testbed with its clock at zero.

    Every measurement in the experiment harness runs on a fresh
    cluster, mirroring how the paper timed each configuration from
    submission to completion.  ``tracer`` injects an observability
    tracer for this run; by default the globally installed tracer (or
    the no-op null tracer) is used.
    """
    return build_cluster(Environment(), config or default_config(), tracer=tracer)


def run_trace_of(cluster: Cluster) -> Optional[Tracer]:
    """The cluster's tracer if it recorded anything, else None.

    Task runners store this on :attr:`TaskRun.trace` so callers can
    tell "traced" from "untraced" runs without poking at the null
    tracer singleton.
    """
    return cluster.tracer if cluster.tracer.enabled else None
