"""Cluster topology: the paper's controller + four worker machines."""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Set

from repro.config import ClusterTopologyConfig, MachineConfig, ReproConfig, default_config
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.serialization import CodecSuite, make_codecs
from repro.cache import CacheConfig, ResultCache, current_cache
from repro.errors import DrainError, UnknownNode
from repro.faults.injector import current_injector
from repro.mem import MemoryConfig, MemoryManager, current_memory_config
from repro.obs.tracer import current_tracer
from repro.sim import Environment

__all__ = ["Cluster", "build_cluster", "DRAIN_POLL_S"]

CONTROLLER = "controller"

#: Cadence at which a drain re-checks that a node has quiesced.
DRAIN_POLL_S = 0.05


class Cluster:
    """A simulated deployment: one controller node plus worker nodes.

    Both engines run on this object.  The Ray-like runtime treats the
    controller as the head node hosting the driver; the workflow engine
    treats it as the Texera controller hosting the web GUI.  Worker
    nodes are named ``worker-0`` .. ``worker-N-1``.
    """

    def __init__(
        self,
        env: Environment,
        config: ReproConfig,
        tracer=None,
        faults=None,
        memory=None,
        cache=None,
    ) -> None:
        self.env = env
        self.config = config
        #: Observability sink (``repro.obs``): an explicitly injected
        #: tracer, else the globally installed one, else the no-op null
        #: tracer.  Attached to this environment as a fresh run and
        #: exposed to every component through ``env.tracer``.
        self.tracer = tracer if tracer is not None else current_tracer()
        self.tracer.attach(env)
        env.tracer = self.tracer
        #: Fault injector (``repro.faults``), resolved exactly like the
        #: tracer: explicit argument, else the globally installed one,
        #: else the dormant null injector.
        self.faults = faults if faults is not None else current_injector()
        self.faults.attach(env)
        env.faults = self.faults
        topology: ClusterTopologyConfig = config.topology
        self.controller = Node(env, CONTROLLER, topology.machine)
        self.workers: List[Node] = [
            Node(env, f"worker-{i}", topology.machine)
            for i in range(topology.num_workers)
        ]
        self._nodes: Dict[str, Node] = {CONTROLLER: self.controller}
        for worker in self.workers:
            self._nodes[worker.name] = worker
        #: Membership bookkeeping (``repro.elastic``).  Listeners are
        #: called as ``listener(action, node)`` with ``action`` in
        #: {"add", "remove"}; ``draining`` names workers mid-drain so
        #: placement layers stop targeting them before removal lands.
        self._membership_listeners: List[Callable[[str, Node], None]] = []
        self.draining: Set[str] = set()
        #: Object stores that must relocate replicas when a node drains.
        self.stores: List[Any] = []
        self._joined_s: Dict[str, float] = {
            worker.name: env.now for worker in self.workers
        }
        self._node_seconds_retired = 0.0
        self._busy_seconds_retired = 0.0
        self.peak_workers = len(self.workers)
        self.network = Network(env, topology.network)
        self.codecs: CodecSuite = make_codecs(config.serialization)
        #: Memory-pressure layer (``repro.mem``), resolved like the
        #: tracer (the one order of :class:`repro.layer.Slot`).  Always
        #: constructed — a dormant manager is pure bookkeeping and the
        #: single ``mem.active`` flag keeps call sites branch-cheap.
        if memory is None:
            memory = current_memory_config()
        self.memory = MemoryManager(self, memory if memory is not None else MemoryConfig())
        self.faults.register_memory(self.memory)
        #: Result cache (``repro.cache``), resolved like the tracer: an
        #: installed *instance* is shared across clusters (that
        #: sharing is what makes a cold-vs-warm sweep possible); the
        #: dormant default is a fresh instance per cluster.
        if cache is None:
            cache = current_cache()
        self.cache = cache if cache is not None else ResultCache(CacheConfig())

    # -- topology ------------------------------------------------------------

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def node(self, name: str) -> Node:
        """Look a node up by name; raises :class:`UnknownNode`."""
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownNode(
                f"no node named {name!r}; have {sorted(self._nodes)}"
            ) from None

    def node_names(self) -> List[str]:
        return list(self._nodes)

    # -- membership (repro.elastic) --------------------------------------------

    def add_membership_listener(self, listener: Callable[[str, Node], None]) -> None:
        """Subscribe to worker joins/leaves: ``listener(action, node)``."""
        self._membership_listeners.append(listener)

    def register_store(self, store: Any) -> None:
        """Register an object store whose replicas must survive drains."""
        self.stores.append(store)

    def joined_at(self, name: str) -> float:
        """Virtual time at which worker ``name`` joined the cluster."""
        return self._joined_s[name]

    def add_node(self, name: str, machine: Optional[MachineConfig] = None) -> Node:
        """Join a new worker to the cluster immediately.

        ``machine`` defaults to the topology's homogeneous shape; pass
        any :class:`repro.config.MachineConfig` (or a named shape from
        ``repro.elastic.MACHINE_SHAPES``) for heterogeneous fleets.
        Provisioning latency is the caller's concern — the autoscaler
        pays it through :meth:`provision_node`.
        """
        if name in self._nodes:
            raise ValueError(f"node {name!r} already exists")
        node = Node(self.env, name, machine or self.config.topology.machine)
        self.workers.append(node)
        self._nodes[name] = node
        self._joined_s[name] = self.env.now
        self.peak_workers = max(self.peak_workers, len(self.workers))
        self.memory.add_node(name)
        for listener in list(self._membership_listeners):
            listener("add", node)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.metrics.gauge("cluster.nodes").set(len(self.workers))
        return node

    def provision_node(
        self,
        name: str,
        machine: Optional[MachineConfig] = None,
        latency_s: float = 0.0,
    ) -> Generator:
        """Simulation process: pay virtual boot latency, then join."""
        if latency_s < 0:
            raise ValueError(f"negative provisioning latency: {latency_s}")
        if latency_s > 0:
            yield self.env.timeout(latency_s)
        return self.add_node(name, machine)

    def remove_node(self, name: str, drain: bool = True):
        """Start removing worker ``name``; returns a simulation process.

        With ``drain=True`` the node is marked draining *synchronously*
        (so placement layers stop targeting it the moment this is
        called) and the returned generator waits for outstanding vCPU
        requests to finish, migrates sole object-store replicas to a
        surviving worker (redundant replicas are dropped for free), and
        waits for RAM reservations to clear before retiring the node.

        With ``drain=False`` the removal reuses the node-kill machinery
        (:meth:`ObjectStore.evict_node`): replicas are dropped as in a
        crash, and any sole un-reconstructable replica stays addressed
        to the now-gone node — later fetches fail loudly with
        :class:`UnknownNode`, exactly as after a real crash.

        Run it with ``env.process(cluster.remove_node(...))`` or
        ``yield from`` inside another process.
        """
        node = self.node(name)
        if node is self.controller:
            raise ValueError("cannot remove the controller node")
        if name in self.draining:
            raise ValueError(f"node {name!r} is already draining")
        active = [w for w in self.workers if w.name not in self.draining]
        if len(active) <= 1:
            raise DrainError("cannot remove the last active worker")
        if drain:
            self.draining.add(name)
        return self._remove(node, drain)

    def _remove(self, node: Node, drain: bool) -> Generator:
        try:
            if drain:
                while node.cpus.in_use > 0 or node.cpus._waiters:
                    yield self.env.timeout(DRAIN_POLL_S)
                target = self._migration_target(node.name)
                for store in list(self.stores):
                    yield from store.migrate_node(node.name, target)
                while node.ram_used > 0:
                    yield self.env.timeout(DRAIN_POLL_S)
            else:
                for store in list(self.stores):
                    store.evict_node(node.name)
        finally:
            self.draining.discard(node.name)
        self._retire(node)
        return node

    def _migration_target(self, exclude: str) -> Optional[str]:
        for worker in self.workers:
            if worker.name != exclude and worker.name not in self.draining:
                return worker.name
        return None

    def _retire(self, node: Node) -> None:
        self.workers.remove(node)
        del self._nodes[node.name]
        self._node_seconds_retired += self.env.now - self._joined_s.pop(node.name)
        self._busy_seconds_retired += node.busy_seconds
        self.memory.remove_node(node.name)
        for listener in list(self._membership_listeners):
            listener("remove", node)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.metrics.gauge("cluster.nodes").set(len(self.workers))

    # -- data movement ---------------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: int) -> Generator:
        """Simulation process moving ``nbytes`` between two nodes."""
        self.node(src)
        self.node(dst)
        result = yield self.env.process(self.network.transfer(src, dst, nbytes))
        return result

    # -- accounting -------------------------------------------------------------

    def total_busy_seconds(self) -> float:
        """Aggregate CPU-seconds consumed across all nodes, ever.

        Includes nodes retired by :meth:`remove_node` — their busy time
        was real even though the machine is gone.
        """
        return self._busy_seconds_retired + sum(
            node.busy_seconds for node in self._nodes.values()
        )

    def node_seconds(self) -> float:
        """Worker machine-seconds paid so far (the cluster's cost bill).

        Each worker is billed from its join time to now (or to its
        retirement); the controller is free, matching how the paper's
        cost discussion counts rented worker VMs.
        """
        now = self.env.now
        return self._node_seconds_retired + sum(
            now - self._joined_s[worker.name] for worker in self.workers
        )

    def __repr__(self) -> str:
        return f"<Cluster controller + {self.num_workers} workers @ t={self.env.now:.2f}s>"


def build_cluster(
    env: Environment,
    config: ReproConfig = None,
    tracer=None,
    faults=None,
    memory=None,
    cache=None,
) -> Cluster:
    """Construct the paper's testbed topology on ``env``.

    ``config`` defaults to the calibrated :func:`repro.config.default_config`;
    ``tracer`` defaults to the globally installed tracer (usually the
    no-op null tracer — see :mod:`repro.obs`); ``faults`` defaults to
    the globally installed fault injector (usually dormant — see
    :mod:`repro.faults`); ``memory`` is a
    :class:`repro.config.MemoryConfig` overriding the globally
    installed memory policy (see :mod:`repro.mem`); ``cache`` is a
    :class:`repro.cache.ResultCache` instance overriding the globally
    installed cache (see :mod:`repro.cache`).
    """
    return Cluster(
        env,
        config or default_config(),
        tracer=tracer,
        faults=faults,
        memory=memory,
        cache=cache,
    )
