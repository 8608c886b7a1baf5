"""Persistent job queue: ordered, bounded, JSON-resumable.

The queue is the durable half of the job service: every job ever
submitted stays in it (terminal jobs included, so a snapshot is a
complete audit log), insertion order is submission order, and the
whole structure round-trips through JSON — :meth:`JobQueue.save` /
:meth:`JobQueue.load` write and read a snapshot file, and
:meth:`JobQueue.requeue_nonterminal` resets in-flight jobs so a
resumed service re-admits them deterministically.

The *waiting* jobs are also indexed per tenant (``streams``, runtime
only), kept current by the jobs' own transitions: no view scans the log.
"""

from __future__ import annotations

import json
from collections import deque
from heapq import merge
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Union

from repro.errors import JobQueueFull, UnknownJob
from repro.jobs.model import QUEUED, SUBMISSION_SEQ, Job, JobSpec

__all__ = ["JobQueue"]

#: Snapshot format version, bumped on incompatible layout changes.
SNAPSHOT_VERSION = 1


class JobQueue:
    """All jobs the service has ever seen, in submission order."""

    def __init__(self, max_queue: Optional[int] = None) -> None:
        if max_queue is not None and max_queue <= 0:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        #: Queue capacity counted over *waiting* (queued) jobs only.
        self.max_queue = max_queue
        #: job_id -> Job; dict order is submission order.
        self._jobs: Dict[str, Job] = {}
        #: Live index: tenant -> its queued jobs, oldest first (no empty
        #: streams).  An iterator over it is stale after any transition.
        self.streams: Dict[str, Deque[Job]] = {}
        self._depth = 0
        self._next_id = 0
        #: Submissions rejected at capacity (monotonic).
        self.rejected = 0

    # -- submission --------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        now: float,
        body_fn: Optional[Callable] = None,
    ) -> Job:
        """Append a new queued job; raises :class:`JobQueueFull` at capacity."""
        if self.max_queue is not None and self.depth >= self.max_queue:
            self.rejected += 1
            raise JobQueueFull(
                f"queue at capacity ({self.max_queue} queued jobs)"
            )
        job_id = f"job-{self._next_id:06d}"
        self._next_id += 1
        job = Job(job_id, spec, submitted_s=now)
        job._body_fn = body_fn
        self._append(job)
        return job

    def _append(self, job: Job) -> None:
        """Log ``job`` as the newest submission; index it if it waits."""
        job._queue, job._seq = self, len(self._jobs)
        self._jobs[job.job_id] = job
        if job.state == QUEUED:
            self.streams.setdefault(job.spec.tenant, deque()).append(job)
            self._depth += 1

    def _left_queued(self, job: Job) -> None:
        """``job`` is about to leave ``queued`` (called by the job itself)."""
        stream = self.streams[job.spec.tenant]
        stream.remove(job)  # O(1) at the head, where admission takes from
        if not stream:
            del self.streams[job.spec.tenant]
        self._depth -= 1

    def _requeued(self, job: Job) -> None:
        """``job`` re-enters ``queued`` at its original submission position."""
        waiting = [*self.streams.get(job.spec.tenant, ()), job]
        self.streams[job.spec.tenant] = deque(sorted(waiting, key=SUBMISSION_SEQ))
        self._depth += 1

    # -- views -------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJob(f"no job named {job_id!r}") from None

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self):
        return iter(self._jobs.values())

    def jobs(self) -> List[Job]:
        """Every job ever submitted, in submission order."""
        return list(self._jobs.values())

    def pending(self) -> List[Job]:
        """Jobs waiting for admission, in submission order."""
        return list(merge(*self.streams.values(), key=SUBMISSION_SEQ))

    @property
    def depth(self) -> int:
        """Number of jobs currently waiting for admission."""
        return self._depth

    @property
    def drained(self) -> bool:
        """True when every job is in a terminal state."""
        return all(job.terminal for job in self._jobs.values())

    # -- save / load -------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": SNAPSHOT_VERSION,
            "next_id": self._next_id,
            "rejected": self.rejected,
            "max_queue": self.max_queue,
            "jobs": [job.to_json() for job in self._jobs.values()],
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "JobQueue":
        version = doc.get("version")
        if version != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported queue snapshot version {version!r} "
                f"(want {SNAPSHOT_VERSION})"
            )
        queue = cls(max_queue=doc.get("max_queue"))
        queue._next_id = int(doc["next_id"])
        queue.rejected = int(doc.get("rejected", 0))
        for job_doc in doc["jobs"]:
            queue._append(Job.from_json(job_doc))
        return queue

    def save(self, path: Union[str, Path]) -> Path:
        """Write a JSON snapshot to ``path`` and return it."""
        path = Path(path)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "JobQueue":
        """Read a snapshot written by :meth:`save`."""
        return cls.from_json(json.loads(Path(path).read_text()))

    def requeue_nonterminal(self) -> int:
        """Reset admitted/running jobs to ``queued`` (resume path).

        Jobs that were in flight when a snapshot was taken lost their
        execution; a resumed service re-admits them from scratch.
        Returns the number of jobs reset.
        """
        reset = 0
        for job in self._jobs.values():
            if not job.terminal and job.state != "queued":
                job.requeue()
                reset += 1
        return reset

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<JobQueue {len(self._jobs)} jobs, {self.depth} queued>"
