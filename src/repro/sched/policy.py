"""Placement policies: who decides *where* parallel work runs.

The paper tunes parallelism through exactly one knob per paradigm
(Ray's ``num_cpus``, Texera's worker count) but never asks where that
parallelism should land.  This module makes the question first-class:
a :class:`PlacementPolicy` answers one :class:`PlacementRequest` at a
time with a cluster node, consulting the :class:`repro.sched.Scheduler`
for per-node load accounts, object-replica locations and node health
(``repro.faults``).

Policies are pure decision functions against the virtual clock: they
schedule no events and charge no virtual time, so swapping policies
changes *when* work happens, never *what* it computes — a property the
``tests/properties/test_sched_props.py`` hypothesis suite pins down.

The catalogue:

``round_robin``
    The seed behaviour, bit-identical to the pre-``repro.sched`` code:
    the i-th placement (tasks, actors and operator instances share one
    counter) lands on ``workers[i % N]``; retries stay on their
    original node; reconstructions run on the first healthy worker.
``least_loaded``
    The node with the fewest outstanding placements (per the
    scheduler's slot/queue accounting), skipping crashed nodes.
``locality``
    Script paradigm: place a task where its largest ``ObjectRef``
    argument already has (or is about to get) a replica, so concurrent
    dereferences share one object-store transfer instead of paying one
    per node.  Workflow paradigm: align instance *k* of every operator
    on the same node, co-locating hash-partition peers across pipeline
    stages so partitioned channels stay intra-node.
``packed``
    Placement-group ``PACK``: fill the lowest-indexed healthy node up
    to its vCPU count before spilling to the next.
``spread``
    Placement-group ``SPREAD``: balance *cumulative* placements across
    healthy nodes — a fault-aware round-robin.
``drf``
    Dominant-resource-fairness placement for resource-shaped requests
    (the job service's ``job`` kind): land the request on the healthy
    node whose *dominant* resource share — the larger of vCPU and RAM
    utilization — would be lowest after placement.  A resources-aware
    ``least_loaded`` that keeps heterogeneous demands (CPU-heavy vs
    RAM-heavy jobs) from piling onto one node.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Type

from repro.errors import UnknownPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.cluster import Node
    from repro.sched.scheduler import Scheduler

__all__ = [
    "PlacementRequest",
    "PlacementPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "LocalityPolicy",
    "PackedPolicy",
    "SpreadPolicy",
    "DrfPolicy",
    "POLICIES",
    "DEFAULT_POLICY",
    "make_policy",
    "policy_catalogue",
    "round_robin_index",
    "valid_policy",
]

#: Placement kinds that advance the shared round-robin counter — the
#: seed incremented one counter per task submission, actor creation and
#: operator-instance layout; retries and reconstructions did not.
#: ``job`` placements (the ``repro.jobs`` control plane) run on their
#: own scheduler session and count like fresh submissions.
COUNTED_KINDS = ("task", "actor", "operator", "job")


def round_robin_index(index: int, num_workers: int) -> int:
    """The seed's placement arithmetic: i-th placement -> worker slot."""
    return index % num_workers


class PlacementRequest:
    """One placement decision to be made.

    Engines fill the hints they have: the script runtime passes the
    ``ObjectRef`` arguments of a task (locality), the workflow engine
    passes the operator id and worker index (peer co-location), and
    retry/reconstruction requests carry the node the work previously
    ran on.
    """

    __slots__ = (
        "kind",
        "label",
        "refs",
        "prev_node",
        "operator_id",
        "worker_index",
        "num_workers",
        "cache_node",
        "tenant",
        "cpus",
        "ram_bytes",
        "index",
    )

    def __init__(
        self,
        kind: str,
        label: str = "",
        refs: Sequence = (),
        prev_node: Optional[str] = None,
        operator_id: str = "",
        worker_index: int = 0,
        num_workers: int = 1,
        cache_node: Optional[str] = None,
        tenant: str = "",
        cpus: int = 1,
        ram_bytes: int = 0,
    ) -> None:
        if kind not in (
            "task",
            "actor",
            "retry",
            "reconstruction",
            "operator",
            "job",
        ):
            raise ValueError(f"unknown placement kind: {kind!r}")
        self.kind = kind
        self.label = label
        #: ``ObjectRef`` arguments of the task (locality hints).
        self.refs = tuple(refs)
        #: Node the work ran on before (retry / reconstruction).
        self.prev_node = prev_node
        self.operator_id = operator_id
        self.worker_index = worker_index
        self.num_workers = num_workers
        #: Node holding this submission's cached result, if a
        #: ``repro.cache`` lookup would hit (affinity hint — running
        #: there re-adopts the value with zero transfers).  Only the
        #: locality policy consults it; the default policy stays
        #: seed-identical.
        self.cache_node = cache_node
        #: Submitting tenant (``repro.jobs``) — fairness bookkeeping
        #: only; no built-in policy keys placement on it directly.
        self.tenant = tenant
        #: Resource demand of the placement (``job`` kind); the DRF
        #: policy turns these into post-placement dominant shares.
        self.cpus = cpus
        self.ram_bytes = ram_bytes
        #: Monotonic placement position, filled in by the scheduler.
        self.index = 0

    def largest_ref(self):
        """The biggest fulfilled ``ObjectRef`` hint, or None."""
        best = None
        for ref in self.refs:
            if getattr(ref, "nbytes", 0) <= 0:
                continue
            if best is None or ref.nbytes > best.nbytes:
                best = ref
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PlacementRequest {self.kind}:{self.label or '-'} #{self.index}>"


class PlacementPolicy(abc.ABC):
    """Chooses a worker node for each placement request.

    Implementations must be deterministic functions of the request,
    the scheduler's accounts and the virtual clock — no wall time, no
    randomness — so that runs replay bit-identically.
    """

    #: Registry key (and the CLI ``--scheduler`` name).
    name: str = ""
    #: One-line blurb for the ``repro sched`` listing.
    description: str = ""

    @abc.abstractmethod
    def choose(self, request: PlacementRequest, sched: "Scheduler") -> "Node":
        """The node ``request`` should run on."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


def _min_outstanding(candidates: Sequence["Node"], sched: "Scheduler") -> "Node":
    """Least outstanding load; ties broken by total placements, then
    by worker position (stable for any number of workers)."""
    return min(
        candidates,
        key=lambda node: (
            sched.accounts[node.name].outstanding,
            sched.accounts[node.name].total,
            sched.worker_position(node.name),
        ),
    )


class RoundRobinPolicy(PlacementPolicy):
    """The seed's placement, verbatim (the compatibility default).

    Reproduces the pre-``repro.sched`` behaviour bit-identically —
    including its indifference to faults: fresh placements cycle over
    *all* workers (a task may land inside an outage window and pay the
    retry, exactly as before), retries stay put, and only lineage
    reconstruction prefers a healthy worker (the seed's
    ``_healthy_worker``).
    """

    name = "round_robin"
    description = (
        "seed-identical cycle over all workers; retries stay on their node"
    )

    def choose(self, request: PlacementRequest, sched: "Scheduler") -> "Node":
        if request.kind == "retry" and request.prev_node is not None:
            return sched.cluster.node(request.prev_node)
        if request.kind == "reconstruction":
            return sched.first_healthy_worker()
        return sched.workers[round_robin_index(request.index, len(sched.workers))]


class LeastLoadedPolicy(PlacementPolicy):
    """Fewest outstanding placements wins; crashed nodes are skipped."""

    name = "least_loaded"
    description = (
        "healthy node with the fewest outstanding placements (queue-aware)"
    )

    def choose(self, request: PlacementRequest, sched: "Scheduler") -> "Node":
        return _min_outstanding(sched.healthy_workers(), sched)


class LocalityPolicy(PlacementPolicy):
    """Move compute to the data instead of data to the compute.

    Script paradigm: a task is placed where its largest ``ObjectRef``
    argument already has a replica — or where one is already *planned*
    (an earlier placement will have fetched it by running there), so a
    burst of submissions converges on one node and the object store's
    in-flight transfer dedup collapses N model transfers into one.  A
    node is only "local" while it has spare vCPUs; past that the policy
    spills to the least-loaded healthy node (and plans a replica
    there, so the spill target becomes local for the next burst).

    Workflow paradigm: instance *k* of every operator lands on worker
    ``k % N``, aligning hash-partition peers across pipeline stages —
    a tuple hashed to index *k* then moves between co-located
    instances, and the engine short-circuits intra-node transfers.
    """

    name = "locality"
    description = (
        "tasks follow their largest object argument; workflow aligns "
        "hash-partition peers"
    )

    def __init__(self) -> None:
        #: ``ref_id -> node name`` replicas this policy's own placements
        #: will create (a placed task fetches its arguments on arrival).
        self._planned: Dict[str, str] = {}

    def choose(self, request: PlacementRequest, sched: "Scheduler") -> "Node":
        healthy = sched.healthy_workers()
        if request.kind == "operator":
            node = sched.workers[
                round_robin_index(request.worker_index, len(sched.workers))
            ]
            if node in healthy:
                return node
            return _min_outstanding(healthy, sched)
        target = request.largest_ref()
        if target is not None:
            holders = set(sched.replicas_of(target))
            planned = self._planned.get(target.ref_id)
            if planned is not None:
                holders.add(planned)
            local = [node for node in healthy if node.name in holders]
            if local:
                best = _min_outstanding(local, sched)
                if sched.accounts[best.name].outstanding < best.num_cpus:
                    self._planned[target.ref_id] = best.name
                    return best
        if request.cache_node is not None:
            # Cache affinity: the result already lives on this node, so
            # a hit there re-adopts it without any cross-node movement.
            # Weaker than argument locality (checked above) because a
            # miss still has to fetch the arguments.
            for node in healthy:
                if (
                    node.name == request.cache_node
                    and sched.accounts[node.name].outstanding < node.num_cpus
                ):
                    return node
        node = _min_outstanding(healthy, sched)
        if target is not None:
            self._planned[target.ref_id] = node.name
        return node


class PackedPolicy(PlacementPolicy):
    """Placement-group PACK: saturate a node before opening the next.

    Minimizes the number of nodes touched (and hence inter-node
    traffic) at the cost of intra-node queueing once a node's vCPUs
    are oversubscribed.
    """

    name = "packed"
    description = "fill the lowest node up to its vCPUs, then spill (PACK)"

    def choose(self, request: PlacementRequest, sched: "Scheduler") -> "Node":
        healthy = sched.healthy_workers()
        for node in healthy:
            if sched.accounts[node.name].outstanding < node.num_cpus:
                return node
        return _min_outstanding(healthy, sched)


class SpreadPolicy(PlacementPolicy):
    """Placement-group SPREAD: balance cumulative placements.

    A fault-aware round-robin — the historical counts stay balanced
    even when outage windows take nodes out of rotation for a while.
    """

    name = "spread"
    description = "balance cumulative placements across healthy nodes (SPREAD)"

    def choose(self, request: PlacementRequest, sched: "Scheduler") -> "Node":
        return min(
            sched.healthy_workers(),
            key=lambda node: (
                sched.accounts[node.name].total,
                sched.accounts[node.name].outstanding,
                sched.worker_position(node.name),
            ),
        )


class DrfPolicy(PlacementPolicy):
    """Dominant-resource-fairness placement (resource-aware balance).

    For a request demanding ``cpus`` vCPUs and ``ram_bytes`` RAM, each
    healthy node's *dominant share after placement* is the larger of
    its vCPU and RAM utilization once the demand lands there; the node
    with the lowest dominant share wins.  Demands the job service fills
    in make this the placement half of DRF — admission *ordering*
    across tenants is the fair-share half (``repro.jobs.FairShare``).

    Requests without a RAM demand degrade to CPU-utilization balance,
    so the policy is safe for plain engine placements too.
    """

    name = "drf"
    description = (
        "lowest dominant resource share (vCPU vs RAM) after placement (jobs)"
    )

    def choose(self, request: PlacementRequest, sched: "Scheduler") -> "Node":
        def dominant_share_after(node: "Node") -> float:
            cpu_share = (node.cpus.in_use + request.cpus) / node.num_cpus
            ram_share = (
                (node.ram_used + request.ram_bytes) / node.ram_limit
                if node.ram_limit > 0
                else 0.0
            )
            return max(cpu_share, ram_share)

        return min(
            sched.healthy_workers(),
            key=lambda node: (
                dominant_share_after(node),
                sched.accounts[node.name].outstanding,
                sched.worker_position(node.name),
            ),
        )


#: Name -> class, in the order the ``repro sched`` listing prints.
POLICIES: Dict[str, Type[PlacementPolicy]] = {
    policy.name: policy
    for policy in (
        RoundRobinPolicy,
        LeastLoadedPolicy,
        LocalityPolicy,
        PackedPolicy,
        SpreadPolicy,
        DrfPolicy,
    )
}

DEFAULT_POLICY = RoundRobinPolicy.name


def make_policy(name: str) -> PlacementPolicy:
    """Instantiate a registered policy; raises :class:`UnknownPolicy`."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise UnknownPolicy(
            f"unknown placement policy {name!r}; have {', '.join(POLICIES)}"
        ) from None


def policy_catalogue() -> str:
    """The ``repro sched`` listing: one line per registered policy."""
    width = max(len(name) for name in POLICIES)
    lines = ["placement policies (select with --scheduler NAME):"]
    for name, cls in POLICIES.items():
        marker = "*" if name == DEFAULT_POLICY else " "
        lines.append(f" {marker} {name:<{width}}  {cls.description}")
    lines.append("(* default; round_robin reproduces the seed timings bit-identically)")
    return "\n".join(lines)


def valid_policy(name: str) -> bool:
    """True if ``name`` is a registered policy."""
    return name in POLICIES
