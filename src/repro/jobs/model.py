"""Job model: spec, state machine and JSON round-trip.

A :class:`JobSpec` is the immutable *what* of a submission — tenant,
body name, resource demand, profile duration.  A :class:`Job` is the
mutable control-plane record wrapping one spec: the state machine

.. code-block:: text

   queued ──> admitted ──> running ──> completed
     │            │            ├────> failed
     └────────────┴────────────┴────> cancelled

plus the timestamps the service's latency metrics are computed from.
Transitions outside the arrows raise
:class:`repro.errors.InvalidJobTransition`, so a bug in the service
(double admission, completing a cancelled job) fails loudly instead of
silently corrupting the queue.

Jobs serialize to plain JSON dicts (:meth:`Job.to_json` /
:meth:`Job.from_json`) — the save/load substrate of
:class:`repro.jobs.JobQueue`.  The runtime-only body callable is *not*
serialized; a resumed queue re-resolves bodies by name from the
registry (:mod:`repro.jobs.bodies`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, Optional

from repro.config import GIB
from repro.errors import InvalidJobTransition

__all__ = [
    "QUEUED",
    "ADMITTED",
    "RUNNING",
    "COMPLETED",
    "FAILED",
    "CANCELLED",
    "STATES",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "JobSpec",
    "Job",
]

#: State-machine vocabulary (also the wire strings in JSON snapshots).
QUEUED = "queued"
ADMITTED = "admitted"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, ADMITTED, RUNNING, COMPLETED, FAILED, CANCELLED)

#: States no job ever leaves.
TERMINAL_STATES = frozenset({COMPLETED, FAILED, CANCELLED})

#: state -> states reachable in one transition.
TRANSITIONS: Dict[str, frozenset] = {
    QUEUED: frozenset({ADMITTED, FAILED, CANCELLED}),
    ADMITTED: frozenset({RUNNING, FAILED, CANCELLED}),
    RUNNING: frozenset({COMPLETED, FAILED, CANCELLED}),
    COMPLETED: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
}

#: Sort key: position in the owning queue's submission order (an int;
#: the id string's lexicographic order breaks at the millionth job).
SUBMISSION_SEQ = attrgetter("_seq")


@dataclass(frozen=True)
class JobSpec:
    """What one submission asks for (immutable)."""

    #: Submitting tenant; hierarchical names use ``/`` separators
    #: (``team-a/alice``) and fair-share aggregates at every level.
    tenant: str = "tenant-0"
    #: Body name in the registry (:mod:`repro.jobs.bodies`).
    body: str = "profile"
    #: vCPUs the job occupies on its node while running.
    cpus: int = 1
    #: RAM the job reserves on its node while running.
    ram_bytes: int = 1 * GIB
    #: Occupancy duration for ``profile`` bodies; task bodies replace
    #: it with the task's own measured virtual elapsed time.
    duration_s: float = 1.0

    def __post_init__(self) -> None:
        if "" in self.tenant.split("/"):  # would share a ledger level "" or "a/"
            raise ValueError(f"tenant must be non-empty at every level: {self.tenant!r}")
        if not self.body:
            raise ValueError("body must be non-empty")
        if self.cpus < 1:
            raise ValueError(f"cpus must be >= 1, got {self.cpus}")
        if self.ram_bytes < 0:
            raise ValueError(f"ram_bytes must be >= 0, got {self.ram_bytes}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")

    def to_json(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "body": self.body,
            "cpus": self.cpus,
            "ram_bytes": self.ram_bytes,
            "duration_s": self.duration_s,
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "JobSpec":
        return cls(
            tenant=doc["tenant"],
            body=doc["body"],
            cpus=int(doc["cpus"]),
            ram_bytes=int(doc["ram_bytes"]),
            duration_s=float(doc["duration_s"]),
        )


class Job:
    """One submission's control-plane record (mutable state machine)."""

    __slots__ = (
        "job_id",
        "spec",
        "state",
        "node",
        "error",
        "submitted_s",
        "admitted_s",
        "started_s",
        "finished_s",
        "_body_fn",
        "result",
        "_queue",
        "_seq",
    )

    def __init__(self, job_id: str, spec: JobSpec, submitted_s: float) -> None:
        self.job_id = job_id
        self.spec = spec
        self.state = QUEUED
        #: Node the job was placed on (set at admission).
        self.node: Optional[str] = None
        #: Failure description for ``failed`` jobs.
        self.error: Optional[str] = None
        self.submitted_s = submitted_s
        self.admitted_s: Optional[float] = None
        self.started_s: Optional[float] = None
        self.finished_s: Optional[float] = None
        #: Runtime-only override body (never serialized); ``None``
        #: means resolve :attr:`JobSpec.body` from the registry.
        self._body_fn: Optional[Callable] = None
        #: Runtime-only body result (never serialized).
        self.result: Any = None
        #: Runtime-only (never serialized): owning queue, position in its order.
        self._queue: Any = None
        self._seq = 0

    # -- state machine -----------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def queue_latency_s(self) -> Optional[float]:
        """Virtual seconds spent waiting for admission, once admitted."""
        if self.admitted_s is None:
            return None
        return self.admitted_s - self.submitted_s

    def _transition(self, new_state: str) -> None:
        if new_state not in TRANSITIONS[self.state]:
            raise InvalidJobTransition(
                f"job {self.job_id}: cannot go {self.state} -> {new_state}"
            )
        if self.state == QUEUED and self._queue is not None:
            self._queue._left_queued(self)
        self.state = new_state

    def admit(self, now: float, node: str) -> None:
        """queued -> admitted, recording the placement decision."""
        self._transition(ADMITTED)
        self.admitted_s = now
        self.node = node

    def start(self, now: float) -> None:
        """admitted -> running."""
        self._transition(RUNNING)
        self.started_s = now

    def complete(self, now: float, result: Any = None) -> None:
        """running -> completed."""
        self._transition(COMPLETED)
        self.finished_s = now
        self.result = result

    def fail(self, now: float, error: str) -> None:
        """any non-terminal state -> failed."""
        self._transition(FAILED)
        self.finished_s = now
        self.error = error

    def cancel(self, now: float) -> None:
        """any non-terminal state -> cancelled."""
        self._transition(CANCELLED)
        self.finished_s = now

    def requeue(self) -> None:
        """Reset an in-flight job to ``queued`` (queue resume path).

        Only non-terminal jobs may be requeued; terminal jobs keep
        their outcome across snapshots.
        """
        if self.terminal:
            raise InvalidJobTransition(
                f"job {self.job_id}: cannot requeue terminal state {self.state}"
            )
        if self.state != QUEUED and self._queue is not None:
            self._queue._requeued(self)
        self.state = QUEUED
        self.node = None
        self.admitted_s = None
        self.started_s = None

    # -- save / load -------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_json(),
            "state": self.state,
            "node": self.node,
            "error": self.error,
            "submitted_s": self.submitted_s,
            "admitted_s": self.admitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "Job":
        state = doc["state"]
        if state not in STATES:
            raise ValueError(f"unknown job state {state!r}")
        job = cls(
            doc["job_id"], JobSpec.from_json(doc["spec"]), float(doc["submitted_s"])
        )
        job.state = state
        job.node = doc.get("node")
        job.error = doc.get("error")
        for stamp in ("admitted_s", "started_s", "finished_s"):
            value = doc.get(stamp)
            setattr(job, stamp, None if value is None else float(value))
        return job

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Job {self.job_id} tenant={self.spec.tenant!r} "
            f"body={self.spec.body!r} state={self.state}>"
        )
