"""The job service: admission control plane on a shared cluster.

One :class:`JobService` owns a persistent :class:`JobQueue`, a
:class:`FairShare` ledger, a :class:`repro.sched.Scheduler` and one
shared simulated cluster.  Its dispatcher is a simulation process that
admits pending jobs whenever capacity frees up:

1. order pending jobs by the fair-share policy (``fifo`` or
   hierarchical DRF);
2. skip jobs whose tenant is at quota (they stay queued; another
   tenant's job may still go);
3. stop at the head of the line when no node can take the job —
   either every node's vCPUs are held, or RAM admission would cross
   the backpressure watermark shared with :mod:`repro.mem`;
4. land the job on a node through the placement policy
   (:class:`repro.sched.DrfPolicy` by default), reserve its resources,
   and run it.

Running a job means executing its *body* — for paper-task bodies a
whole pipeline run on its own fresh cluster, exactly as a direct
engine run would execute it (this is the dormant invariant: the body
result and its virtual elapsed time are bit-identical to running the
task without the service) — then occupying the reserved vCPUs and RAM
on the shared cluster for the body's measured duration.

Everything is deterministic: the traffic generator is seeded, the
dispatcher wakes in event order, and ties in fair-share ordering break
by submission order, so a config maps to exactly one execution.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.cluster import Cluster, build_cluster, charge
from repro.config import ElasticConfig, JobsConfig
from repro.elastic import Autoscaler, current_elastic_config, parse_elastic_spec
from repro.errors import InvalidJobTransition, JobQueueFull
from repro.jobs.bodies import JobResult, resolve_body
from repro.jobs.fairshare import FairShare
from repro.jobs.model import Job, JobSpec
from repro.jobs.queue import JobQueue
from repro.jobs.traffic import Arrival, TrafficGenerator
from repro.sched import PlacementRequest, Scheduler
from repro.sim import Environment

__all__ = ["JobService", "percentile"]


def percentile(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (``q`` in [0, 100]); None on empty input."""
    if not values:
        return None
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[int(rank) - 1]


class JobService:
    """Multi-tenant admission control over one shared cluster."""

    def __init__(
        self,
        config: Optional[JobsConfig] = None,
        cluster: Optional[Cluster] = None,
        queue: Optional[JobQueue] = None,
        elastic: Optional[Union[ElasticConfig, str]] = None,
    ) -> None:
        self.config = config or JobsConfig()
        if cluster is None:
            cluster = build_cluster(Environment())
        self.cluster = cluster
        self.env = cluster.env
        self.scheduler = Scheduler(cluster, policy=self.config.placement)
        self.queue = queue if queue is not None else JobQueue(
            max_queue=self.config.max_queue
        )
        self.fairshare = FairShare(
            policy=self.config.policy,
            total_cpus=sum(node.num_cpus for node in cluster.workers),
            total_ram_bytes=sum(node.ram_limit for node in cluster.workers),
            quota_running=self.config.quota_running,
            quota_cpus=self.config.quota_cpus,
            quota_ram_bytes=self.config.quota_ram_bytes,
        )
        #: Admission backpressure watermark: explicit override, else the
        #: resolved memory policy's (``repro.mem``) — the "route
        #: admission through repro.mem watermarks" contract.
        self.admission_watermark = (
            self.config.admission_watermark
            if self.config.admission_watermark is not None
            else cluster.memory.config.admission_watermark
        )
        #: vCPUs held per node by admitted-but-unfinished jobs.  The
        #: service does its own CPU ledger so admission never overbooks
        #: a node and jobs never stall inside ``node.compute``.
        self._cpus_held: Dict[str, int] = {
            node.name: 0 for node in cluster.workers
        }
        #: Jobs admitted and not yet terminal.
        self.running = 0
        #: Arrivals not yet submitted (open-loop traffic bookkeeping).
        self._arrivals_pending = 0
        self._wake = self.env.event()
        #: Telemetry mirrors (also emitted through ``repro.obs``).
        self.peak_queue_depth = 0
        self.blocked = {"quota": 0, "capacity": 0, "backpressure": 0, "placement": 0}
        self.requeued = 0
        #: Elastic membership (``repro.elastic``), resolved like every
        #: slot-backed layer: explicit argument (a config or a spec
        #: string), else the installed config, else the dormant default.
        if isinstance(elastic, str):
            elastic = parse_elastic_spec(elastic)
        if elastic is None:
            elastic = current_elastic_config()
        self.elastic = elastic if elastic is not None else ElasticConfig()
        self.autoscaler = Autoscaler(self, self.elastic) if self.elastic.enabled else None
        cluster.add_membership_listener(self._membership_changed)

    # -- membership (repro.elastic) -----------------------------------------

    def _membership_changed(self, action: str, node) -> None:
        if action == "add":
            self._cpus_held.setdefault(node.name, 0)
        else:
            self._cpus_held.pop(node.name, None)
        fs = self.fairshare
        fs.total_cpus = sum(n.num_cpus for n in self.cluster.workers)
        fs.total_ram_bytes = sum(n.ram_limit for n in self.cluster.workers)
        # Either direction can unblock the dispatcher: an add brings
        # capacity, a completed drain settles the draining set.
        self._kick()

    # -- submission --------------------------------------------------------

    def submit(self, spec: JobSpec, body_fn: Optional[Callable] = None) -> Job:
        """Queue one job; raises :class:`JobQueueFull` at capacity.

        Jobs whose demand can *never* be satisfied — more vCPUs than
        any node has, more RAM than the admission watermark allows on
        any node, or a demand above the tenant's own quota ceiling —
        fail immediately instead of deadlocking the queue.
        """
        now = self.env.now
        tracer = self.env.tracer
        try:
            job = self.queue.submit(spec, now, body_fn=body_fn)
        except JobQueueFull:
            if tracer.enabled:
                tracer.metrics.counter("jobs.rejected", tenant=spec.tenant).inc()
            raise
        if tracer.enabled:
            tracer.metrics.counter("jobs.submitted", tenant=spec.tenant).inc()
        impossible = self._never_admissible(spec)
        if impossible is not None:
            job.fail(now, impossible)
            self._job_terminal(job)
            return job
        self._note_depth()
        self._kick()
        return job

    def _never_admissible(self, spec: JobSpec) -> Optional[str]:
        workers = self.cluster.workers
        max_cpus = max(node.num_cpus for node in workers)
        ceiling = max(
            node.ram_limit * self.admission_watermark for node in workers
        )
        if self.autoscaler is not None:
            # The fleet can grow: a job that fits the autoscaler's
            # provisioned shape is admissible even if no current node
            # can take it.
            shape = self.autoscaler.machine
            max_cpus = max(max_cpus, shape.num_cpus)
            ceiling = max(ceiling, shape.ram_bytes * self.admission_watermark)
        if spec.cpus > max_cpus:
            return f"demand of {spec.cpus} vCPUs exceeds every node"
        if spec.ram_bytes > ceiling:
            return (
                f"demand of {spec.ram_bytes} B exceeds the admission "
                f"watermark on every node"
            )
        fs = self.fairshare
        if fs.quota_cpus is not None and spec.cpus > fs.quota_cpus:
            return f"demand of {spec.cpus} vCPUs exceeds the tenant vCPU quota"
        if fs.quota_ram_bytes is not None and spec.ram_bytes > fs.quota_ram_bytes:
            return f"demand of {spec.ram_bytes} B exceeds the tenant RAM quota"
        return None

    def cancel(self, job_id: str) -> Job:
        """Cancel a *queued* job (in-flight jobs run to completion)."""
        job = self.queue.get(job_id)
        if job.state != "queued":
            raise InvalidJobTransition(
                f"job {job_id} is {job.state}; only queued jobs can be "
                "cancelled through the service"
            )
        job.cancel(self.env.now)
        self._job_terminal(job)
        self._kick()
        return job

    # -- dispatch ----------------------------------------------------------

    def _kick(self) -> None:
        """Wake the dispatcher (idempotent within one event step)."""
        if not self._wake.triggered:
            self._wake.succeed()

    def _dispatch(self):
        """Dispatcher process: admit until traffic and queue drain."""
        while True:
            self._admit_pending()
            if self._arrivals_pending == 0 and self.running == 0:
                stuck = self.queue.pending()
                if not stuck:
                    return
                if self.autoscaler is not None and self.autoscaler.request_capacity():
                    # The fleet can still grow (or is mid-drain): wait
                    # for the membership change to kick us rather than
                    # failing jobs a provisioning node could admit.
                    yield self._wake
                    self._wake = self.env.event()
                    continue
                # Nothing is running and no arrivals remain, yet these
                # jobs did not admit: nothing can ever unblock them
                # (e.g. an injected ``oom`` fault clamped node RAM
                # after submission).  Fail loudly, never deadlock.
                for job in stuck:
                    job.fail(
                        self.env.now,
                        "unadmittable: no node can ever fit the job",
                    )
                    self._job_terminal(job)
                return
            yield self._wake
            self._wake = self.env.event()

    def _admit_pending(self) -> None:
        """Admit as many pending jobs as quotas and capacity allow."""
        while self.queue.depth:
            admitted = False
            for job in self.fairshare.merge(self.queue.streams):
                reason = self.fairshare.quota_blocked(job)
                if reason is not None:
                    self._note_blocked("quota", job)
                    continue
                node = self._fitting_node(job)
                if node is None:
                    # Head-of-line: the cluster is out of capacity for
                    # the fairest admissible job; later jobs must wait
                    # too, or starvation-by-smallness would follow.
                    return
                self._admit(job, node)
                admitted = True
                break  # the charge and transition invalidated the lazy merge
            if not admitted:
                return

    def _fitting_node(self, job: Job):
        """Any node with free vCPUs and RAM under the watermark, or None."""
        fits = False
        draining = self.cluster.draining
        for node in self.cluster.workers:
            if node.name in draining:
                continue
            if self._cpus_held[node.name] + job.spec.cpus > node.num_cpus:
                continue
            fits = True
            if (
                node.ram_used + job.spec.ram_bytes
                <= self.admission_watermark * node.ram_limit
            ):
                return node
        # Distinguish "no cpus anywhere" from "RAM backpressure".
        self._note_blocked("capacity" if not fits else "backpressure", job)
        return None

    def _admit(self, job: Job, fallback_node) -> None:
        spec = job.spec
        request = PlacementRequest(
            "job",
            label=job.job_id,
            tenant=spec.tenant,
            cpus=spec.cpus,
            ram_bytes=spec.ram_bytes,
        )
        node = self.scheduler.choose(request)
        if (
            self._cpus_held[node.name] + spec.cpus > node.num_cpus
            or node.ram_used + spec.ram_bytes
            > self.admission_watermark * node.ram_limit
        ):
            # The placement policy (e.g. plain round_robin) picked a
            # node that cannot take the job right now; fall back to the
            # fitting node the admission check already found.
            self.blocked["placement"] += 1
            node = fallback_node
        self.scheduler.commit(request, node)
        now = self.env.now
        job.admit(now, node.name)
        self._cpus_held[node.name] += spec.cpus
        node.allocate_ram(spec.ram_bytes)
        self.fairshare.charge(job)
        self.running += 1
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.metrics.counter("jobs.admitted", tenant=spec.tenant).inc()
            tracer.metrics.gauge("jobs.running").set(self.running)
            latency = job.queue_latency_s
            if latency is not None:
                tracer.metrics.histogram("jobs.queue_latency_s").record(latency)
            for tenant, share in self.fairshare.shares().items():
                tracer.metrics.gauge("jobs.tenant_share", tenant=tenant).set(share)
        self._note_depth()
        self.env.process(self._run_job(job, node))

    def _run_job(self, job: Job, node):
        spec = job.spec
        job.start(self.env.now)
        try:
            body = (
                job._body_fn if job._body_fn is not None else resolve_body(spec.body)
            )
            result: JobResult = body(spec)
        except Exception as exc:  # noqa: BLE001 - body failures become state
            self._release(job, node)
            job.fail(self.env.now, f"{type(exc).__name__}: {exc}")
            self._job_terminal(job)
            self._kick()
            return
        yield from charge(node, result.duration_s, cores=spec.cpus)
        self._release(job, node)
        job.complete(self.env.now, result)
        self._job_terminal(job)
        self._kick()

    def _release(self, job: Job, node) -> None:
        """Refund every reservation an admitted job holds."""
        self._cpus_held[node.name] -= job.spec.cpus
        node.free_ram(job.spec.ram_bytes)
        self.fairshare.release(job)
        self.scheduler.release(node.name)
        self.running -= 1

    def _job_terminal(self, job: Job) -> None:
        """Emit terminal-state telemetry (reservations already refunded)."""
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.metrics.counter(
                f"jobs.{job.state}", tenant=job.spec.tenant
            ).inc()
            tracer.metrics.gauge("jobs.running").set(self.running)
            tracer.record_complete(
                job.job_id,
                category="jobs.job",
                node=job.node or "",
                start_s=job.submitted_s,
                end_s=job.finished_s if job.finished_s is not None else self.env.now,
                tenant=job.spec.tenant,
                body=job.spec.body,
                state=job.state,
            )

    def _note_depth(self) -> None:
        depth = self.queue.depth
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.metrics.gauge("jobs.queue_depth").set(depth)

    def _note_blocked(self, reason: str, job: Job) -> None:
        self.blocked[reason] += 1
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.metrics.counter(
                "jobs.blocked", reason=reason, tenant=job.spec.tenant
            ).inc()

    # -- driving -----------------------------------------------------------

    def run_pending(self) -> None:
        """Run the simulation until queue and in-flight jobs drain."""
        if self.autoscaler is not None:
            self.autoscaler.ensure_started()
        dispatcher = self.env.process(self._dispatch())
        self.env.run(until=dispatcher)

    def run_job(self, spec: JobSpec, body_fn: Optional[Callable] = None) -> Job:
        """Submit one job and drive it to a terminal state."""
        job = self.submit(spec, body_fn=body_fn)
        if not job.terminal:
            self.run_pending()
        return job

    def _arrival_process(self, arrivals: List[Arrival]):
        for arrival in arrivals:
            delay = arrival.time_s - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._arrivals_pending -= 1
            try:
                self.submit(arrival.spec)
            except JobQueueFull:
                pass  # open loop: counted (queue.rejected), never retried
        self._kick()

    def simulate(self, arrivals: Optional[List[Arrival]] = None) -> Dict[str, Any]:
        """Drive an open-loop traffic run to completion; return the summary.

        ``arrivals`` defaults to the config's seeded
        :class:`TrafficGenerator` stream.
        """
        if arrivals is None:
            arrivals = TrafficGenerator(self.config).arrivals()
        self._arrivals_pending += len(arrivals)
        self.env.process(self._arrival_process(arrivals))
        self.run_pending()
        return self.summary()

    # -- reporting ---------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in ("queued", "admitted", "running",
                                      "completed", "failed", "cancelled")}
        for job in self.queue:
            out[job.state] += 1
        return out

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly outcome of everything the service has run."""
        latencies = [
            job.queue_latency_s
            for job in self.queue
            if job.queue_latency_s is not None
        ]
        counts = self.counts()
        makespan = self.env.now
        per_tenant: Dict[str, Dict[str, Any]] = {}
        for job in self.queue:
            stats = per_tenant.setdefault(
                job.spec.tenant,
                {"submitted": 0, "completed": 0, "latencies": []},
            )
            stats["submitted"] += 1
            if job.state == "completed":
                stats["completed"] += 1
            if job.queue_latency_s is not None:
                stats["latencies"].append(job.queue_latency_s)
        tenants = {
            tenant: {
                "submitted": stats["submitted"],
                "completed": stats["completed"],
                "p50_queue_s": percentile(stats["latencies"], 50),
                "p99_queue_s": percentile(stats["latencies"], 99),
            }
            for tenant, stats in sorted(per_tenant.items())
        }
        out = {
            "jobs": len(self.queue),
            "counts": counts,
            "rejected": self.queue.rejected,
            "blocked": dict(self.blocked),
            "requeued": self.requeued,
            "virtual_makespan_s": makespan,
            "virtual_jobs_per_s": (
                counts["completed"] / makespan if makespan > 0 else 0.0
            ),
            "p50_queue_s": percentile(latencies, 50),
            "p99_queue_s": percentile(latencies, 99),
            "peak_queue_depth": self.peak_queue_depth,
            "tenants": tenants,
            # The cluster's machine-seconds bill — the cost axis of the
            # elasticity experiment (for a static cluster this is just
            # workers x makespan).
            "node_seconds": self.cluster.node_seconds(),
        }
        if self.autoscaler is not None:
            out["elastic"] = self.autoscaler.summary()
        return out

    # -- save / load -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON document capturing config, clock and full queue state."""
        return {
            "config": asdict(self.config),
            "now": self.env.now,
            "queue": self.queue.to_json(),
        }

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.snapshot(), indent=2) + "\n")
        return path

    @classmethod
    def resume(
        cls,
        snapshot: Union[Dict[str, Any], str, Path],
        cluster: Optional[Cluster] = None,
    ) -> "JobService":
        """Rebuild a service from a snapshot (dict or file path).

        The virtual clock continues from the snapshot's ``now`` and
        jobs that were in flight are requeued for re-admission —
        deterministically, since fair-share ordering only depends on
        queue contents and the (reset) tenant ledgers.
        """
        if not isinstance(snapshot, dict):
            snapshot = json.loads(Path(snapshot).read_text())
        config = JobsConfig(**snapshot["config"])
        if cluster is None:
            cluster = build_cluster(Environment(initial_time=float(snapshot["now"])))
        queue = JobQueue.from_json(snapshot["queue"])
        service = cls(config, cluster=cluster, queue=queue)
        service.requeued = queue.requeue_nonterminal()
        tracer = service.env.tracer
        if service.requeued and tracer.enabled:
            tracer.metrics.counter("jobs.requeued").add(service.requeued)
        return service

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<JobService {len(self.queue)} jobs "
            f"({self.queue.depth} queued, {self.running} running) "
            f"policy={self.fairshare.policy!r}>"
        )
