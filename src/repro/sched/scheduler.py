"""The scheduler: load accounting around one placement policy.

One :class:`Scheduler` serves one engine session — the script runtime
builds one per :class:`repro.rayx.RayxRuntime`, the workflow engine one
per :class:`repro.workflow.WorkflowController` — so the round-robin
counter and the per-node accounts start fresh with every run, exactly
like the seed's private placement counters did.

The scheduler is the *only* component allowed to take placement
decisions (a repo-wide check enforces it): engines describe the work in
a :class:`PlacementRequest`, the scheduler filters candidates through
the fault injector's outage windows, delegates the choice to its
:class:`PlacementPolicy`, updates the per-node accounts and emits the
decision to the observability layer (``sched.place`` spans,
``sched.placements``/``sched.replacement`` counters and
``sched.node_load`` gauges).  Everything is bookkeeping on the virtual
clock — no events are scheduled, so the default ``round_robin`` policy
keeps every timing bit-identical to the seed.

The policy resolves like every slot-backed layer: the explicit
``policy`` argument, else the installed policy (see
:func:`repro.sched.scheduling`), else ``round_robin``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set, Union

from repro.sched.policy import (
    COUNTED_KINDS,
    DEFAULT_POLICY,
    PlacementPolicy,
    PlacementRequest,
    make_policy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.cluster import Cluster, Node

__all__ = ["NodeAccount", "Scheduler"]

#: Kinds that re-place work that already ran somewhere (recovery).
REPLACEMENT_KINDS = ("retry", "reconstruction")


class NodeAccount:
    """Per-node slot/queue accounting maintained by the scheduler."""

    __slots__ = ("node_name", "outstanding", "total")

    def __init__(self, node_name: str) -> None:
        self.node_name = node_name
        #: Placements currently alive on the node (placed, not released).
        self.outstanding = 0
        #: Placements ever made on the node (monotonic).
        self.total = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NodeAccount {self.node_name}: {self.outstanding} outstanding "
            f"/ {self.total} total>"
        )


class Scheduler:
    """Owns placement for one engine session on one cluster."""

    def __init__(
        self,
        cluster: "Cluster",
        policy: Union[PlacementPolicy, str, None] = None,
    ) -> None:
        from repro.sched import current_policy_name  # local: avoid cycle

        self.cluster = cluster
        self.env = cluster.env
        if policy is None:
            policy = current_policy_name()
        if policy is None:
            policy = DEFAULT_POLICY
        self.policy = policy if isinstance(policy, PlacementPolicy) else make_policy(policy)
        self.workers: List["Node"] = list(cluster.workers)
        self._positions: Dict[str, int] = {
            worker.name: position for position, worker in enumerate(self.workers)
        }
        self.accounts: Dict[str, NodeAccount] = {
            worker.name: NodeAccount(worker.name) for worker in self.workers
        }
        #: The engine's object store, when it has one (``repro.rayx``);
        #: gives the locality policy its replica map.
        self.store = None
        self._counter = 0
        #: Telemetry mirrored into tracer counters; the replacement
        #: count makes recovery placement observable per run.
        self.placements = 0
        self.replacements = 0
        # Elastic membership (repro.elastic): join/leave events keep
        # the candidate list and the accounts current mid-run.
        cluster.add_membership_listener(self._membership_changed)

    # -- membership (repro.elastic) -----------------------------------------

    def _membership_changed(self, action: str, node: "Node") -> None:
        if action == "add":
            if node.name not in self._positions:
                self.workers.append(node)
                self._positions[node.name] = len(self.workers) - 1
            self.accounts.setdefault(node.name, NodeAccount(node.name))
            return
        self.workers = [w for w in self.workers if w.name != node.name]
        self._positions = {
            worker.name: position for position, worker in enumerate(self.workers)
        }
        # The account stays: in-flight work placed before the drain
        # still calls release(node_name) when it completes.

    # -- views consulted by policies ---------------------------------------

    def worker_position(self, node_name: str) -> int:
        """Stable position of a worker in the cluster's worker list."""
        return self._positions[node_name]

    def healthy_workers(self) -> List["Node"]:
        """Workers outside any fault-injected outage window, in order.

        Falls back to all workers when every node is inside a window —
        placement must never deadlock; the injected outage only delays
        the work placed there.
        """
        faults = self.env.faults
        draining = self.cluster.draining
        if not faults.active and not draining:
            return self.workers
        now = self.env.now
        healthy = [
            worker
            for worker in self.workers
            if worker.name not in draining
            and not faults.node_down(worker.name, now)
        ]
        return healthy or self.workers

    def first_healthy_worker(self) -> "Node":
        """The seed's ``_healthy_worker``: first worker not in an outage."""
        faults = self.env.faults
        draining = self.cluster.draining
        now = self.env.now
        for worker in self.workers:
            if worker.name not in draining and not faults.node_down(
                worker.name, now
            ):
                return worker
        return self.workers[0]

    def replicas_of(self, ref) -> Set[str]:
        """Nodes holding a replica of ``ref`` (empty without a store)."""
        if self.store is None:
            return set()
        return self.store.replicas_of(ref)

    # -- placement ---------------------------------------------------------

    def place(self, request: PlacementRequest) -> "Node":
        """Decide where ``request`` runs; updates accounts and obs."""
        node = self.choose(request)
        self.commit(request, node)
        return node

    def choose(self, request: PlacementRequest) -> "Node":
        """The policy's pick for ``request``, not yet recorded.  A caller
        that may overrule the pick passes the node it settles on to
        :meth:`commit`, so each request is one placement."""
        if request.kind in COUNTED_KINDS:
            request.index = self._counter
            self._counter += 1
        return self.policy.choose(request, self)

    def commit(self, request: PlacementRequest, node: "Node") -> None:
        """Record ``request`` as placed on ``node``: accounts and obs."""
        account = self.accounts.get(node.name)
        if account is not None:
            account.outstanding += 1
            account.total += 1
        self.placements += 1
        replacement = request.kind in REPLACEMENT_KINDS
        if replacement:
            self.replacements += 1
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.metrics.counter(
                "sched.placements", policy=self.policy.name, node=node.name
            ).inc()
            if replacement:
                tracer.metrics.counter(
                    "sched.replacement", kind=request.kind
                ).inc()
            if account is not None:
                tracer.metrics.gauge("sched.node_load", node=node.name).set(
                    account.outstanding
                )
            now = self.env.now
            tracer.record_complete(
                f"place:{request.label or request.kind}",
                category="sched.place",
                node=node.name,
                start_s=now,
                end_s=now,
                policy=self.policy.name,
                kind=request.kind,
            )

    def release(self, node_name: str) -> None:
        """A placement finished; decrement the node's outstanding load."""
        account = self.accounts.get(node_name)
        if account is None:
            return
        if account.outstanding > 0:
            account.outstanding -= 1
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.metrics.gauge("sched.node_load", node=node_name).set(
                account.outstanding
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Scheduler policy={self.policy.name!r} "
            f"{self.placements} placements ({self.replacements} replacements)>"
        )
