"""Per-node memory accounting: LRU spill-to-disk + admission backpressure.

One :class:`MemoryManager` serves one cluster.  It sits between the
engines and ``Node.allocate_ram``/``free_ram`` and, when its policy is
enabled, turns "the plan does not fit" from a hard
:class:`repro.errors.InsufficientResources` failure into the behaviour
a real runtime exhibits under pressure:

* **LRU spill** — object-store replicas are *spillable*: when an
  admission would push a node past the spill watermark, the least
  recently used resident replicas are written to the node's disk
  (paying a bandwidth-proportional virtual cost), releasing their RAM.
  A later ``get`` of a spilled replica pays the disk read back before
  the usual mapping cost (:meth:`ensure_resident`).
* **Admission backpressure** — allocations queue FIFO per node; the
  queue head spills what it can and then *blocks* on a simulation
  event until enough RAM is freed.  FIFO ordering over the
  deterministic event queue keeps pressured runs bit-reproducible.
* **Anonymous allocations** — workflow channel buffers reserve RAM
  without a spillable identity (``key=None``); they are released
  explicitly when the consumer drains the batch
  (:meth:`free_anonymous`).

With the policy disabled (the default) callers keep the seed's direct
``Node`` arithmetic instead of reaching this class, so timings stay
bit-identical (``tests/mem/test_timing_pin.py``); the object store
makes that choice in one place, its ``_attach``/``_detach`` pair.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from fnmatch import fnmatch
from typing import TYPE_CHECKING, Any, Deque, Dict, Generator, List, Optional

from repro.config import MemoryConfig
from repro.errors import InsufficientResources, MemoryPressureError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster

__all__ = ["MemoryManager"]


class _NodeMemory:
    """Bookkeeping for one node: LRU residency, spill set, wait queues."""

    __slots__ = (
        "resident",
        "spilled",
        "restoring",
        "queue",
        "turn_waiters",
        "free_waiters",
        "anonymous_bytes",
    )

    def __init__(self) -> None:
        #: ``key -> nbytes`` for RAM-resident tracked allocations, in
        #: least-recently-used order (head = next spill victim).
        self.resident: "OrderedDict[str, int]" = OrderedDict()
        #: ``key -> nbytes`` for allocations currently on disk.
        self.spilled: Dict[str, int] = {}
        #: In-flight restores, so concurrent getters of one spilled
        #: replica share a single disk read (mirrors the object store's
        #: in-flight transfer dedup).
        self.restoring: Dict[str, Any] = {}
        #: FIFO admission tickets; only the head may admit or spill.
        self.queue: Deque[object] = deque()
        #: Events waiting for the queue head to change.
        self.turn_waiters: List[Any] = []
        #: Events waiting for RAM to be freed.
        self.free_waiters: List[Any] = []
        #: Untracked (non-spillable) bytes, e.g. channel buffers.
        self.anonymous_bytes: int = 0


class MemoryManager:
    """Admission control + spilling for one cluster's nodes.

    Constructed by :class:`repro.cluster.Cluster` for every run (the
    resolved :class:`repro.config.MemoryConfig` decides whether it is
    ``active``).  A ``node_ram_bytes`` override shrinks every node's
    RAM ceiling at construction even when the policy itself is off —
    that is how experiments compare the seed hard-fail path against the
    spilling path on identical hardware.
    """

    def __init__(self, cluster: "Cluster", config: MemoryConfig) -> None:
        self.cluster = cluster
        self.config = config
        self.env = cluster.env
        #: True only when the spill/backpressure policy is on; callers
        #: branch on it so a dormant manager costs nothing (the
        #: bit-identical-timings contract).
        self.active = bool(config.enabled)
        self._states: Dict[str, _NodeMemory] = {
            name: _NodeMemory() for name in cluster.node_names()
        }
        if config.node_ram_bytes is not None:
            for name in cluster.node_names():
                node = cluster.node(name)
                node.ram_limit = min(node.ram_limit, int(config.node_ram_bytes))
        # Telemetry (virtual; mirrored into tracer counters when a
        # tracer is enabled).
        self.spill_count = 0
        self.spill_bytes = 0
        self.spill_seconds = 0.0
        self.restore_count = 0
        self.restore_bytes = 0
        self.restore_seconds = 0.0
        self.blocked_count = 0
        self.blocked_seconds = 0.0

    # -- membership (repro.elastic) ----------------------------------------

    def add_node(self, name: str) -> None:
        """Track a node that joined the cluster mid-run.

        Called by :meth:`Cluster.add_node`; the ``node_ram_bytes``
        override applies to late joiners exactly as it did at
        construction, so the fleet stays homogeneous in policy even
        when heterogeneous in shape.
        """
        self._states[name] = _NodeMemory()
        if self.config.node_ram_bytes is not None:
            node = self.cluster.node(name)
            node.ram_limit = min(node.ram_limit, int(self.config.node_ram_bytes))

    def remove_node(self, name: str) -> None:
        """Forget a drained node's bookkeeping.

        The drain is responsible for emptying the node first; leftover
        tracked state here means data would silently vanish, so fail
        loudly instead.
        """
        state = self._states.pop(name, None)
        if state is None:
            return
        if (
            state.resident
            or state.spilled
            or state.restoring
            or state.queue
            or state.free_waiters
        ):
            raise MemoryPressureError(
                f"node {name!r} removed with tracked memory state: "
                f"{len(state.resident)} resident, {len(state.spilled)} spilled, "
                f"{len(state.queue)} queued"
            )

    # -- watermark arithmetic ----------------------------------------------

    def _spill_target(self, node: Any) -> int:
        return int(self.config.spill_watermark * node.ram_limit)

    def _admission_limit(self, node: Any, nbytes: int) -> int:
        limit = int(self.config.admission_watermark * node.ram_limit)
        if nbytes > limit:
            # Oversized-object escape hatch: an object bigger than the
            # watermark (but not the node) may use the full ceiling,
            # else it could never be admitted at all.
            return node.ram_limit
        return limit

    # -- admission ----------------------------------------------------------

    def allocate(
        self, node_name: str, nbytes: int, key: Optional[str] = None
    ) -> Generator:
        """Simulation process admitting ``nbytes`` on ``node_name``.

        Joins the node's FIFO admission queue; at the head, spills LRU
        residents down toward the spill watermark and then blocks until
        the allocation fits under the admission watermark.  On success
        the RAM is reserved: under ``key`` as a spillable resident
        (most recently used), or anonymously (non-spillable) when
        ``key`` is None.

        Admitting with zero contention and free RAM yields no events,
        so an enabled-but-unpressured run charges zero extra time.
        """
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        node = self.cluster.node(node_name)
        nm = self._states[node_name]
        if nbytes > node.ram_limit:
            raise InsufficientResources(
                f"node {node_name!r}: allocation of {nbytes} bytes exceeds "
                f"the node's RAM ceiling ({node.ram_limit} bytes); no amount "
                "of spilling can admit it"
            )
        ticket = object()
        nm.queue.append(ticket)
        waited_from: Optional[float] = None
        try:
            while nm.queue[0] is not ticket:
                event = self.env.event()
                nm.turn_waiters.append(event)
                if waited_from is None:
                    waited_from = self.env.now
                    self.blocked_count += 1
                yield event
            while True:
                yield from self._spill_for(nm, node, nbytes)
                if node.ram_used + nbytes <= self._admission_limit(node, nbytes):
                    break
                event = self.env.event()
                nm.free_waiters.append(event)
                if waited_from is None:
                    waited_from = self.env.now
                    self.blocked_count += 1
                yield event
        finally:
            # Leave the queue even when interrupted (fault kill while
            # blocked) — a stranded ticket would deadlock the node.
            nm.queue.remove(ticket)
            self._wake(nm.turn_waiters)
        if waited_from is not None:
            elapsed = self.env.now - waited_from
            self.blocked_seconds += elapsed
            tracer = self.env.tracer
            if tracer.enabled:
                tracer.metrics.counter("mem.blocked.count", node=node_name).inc()
                tracer.metrics.counter(
                    "mem.blocked.seconds", node=node_name
                ).add(elapsed)
        node.allocate_ram(nbytes)
        if key is None:
            nm.anonymous_bytes += nbytes
        else:
            nm.resident[key] = nbytes
            nm.resident.move_to_end(key)

    def release(self, node_name: str, key: str) -> None:
        """Drop a tracked allocation: free its RAM, or forget its spill.

        Safe to call whether the entry is resident, spilled, or (after
        an interrupted admission) unknown.
        """
        nm = self._states[node_name]
        if key in nm.resident:
            nbytes = nm.resident.pop(key)
            self.cluster.node(node_name).free_ram(nbytes)
            self._wake(nm.free_waiters)
        elif key in nm.spilled:
            del nm.spilled[key]

    def free_anonymous(self, node_name: str, nbytes: int) -> None:
        """Release an anonymous (non-spillable) reservation."""
        nm = self._states[node_name]
        nm.anonymous_bytes -= nbytes
        self.cluster.node(node_name).free_ram(nbytes)
        self._wake(nm.free_waiters)

    # -- residency ----------------------------------------------------------

    def touch(self, node_name: str, key: str) -> None:
        """Mark a resident entry most recently used (access bookkeeping)."""
        nm = self._states[node_name]
        if key in nm.resident:
            nm.resident.move_to_end(key)

    def is_spilled(self, node_name: str, key: str) -> bool:
        return key in self._states[node_name].spilled

    def ensure_resident(
        self, node_name: str, key: str, label: Optional[str] = None
    ) -> Generator:
        """Simulation process restoring ``key`` from disk if spilled.

        Resident entries are just touched (LRU bump) at zero cost.  A
        spilled entry pays the disk read plus re-admission (which may
        itself spill colder entries); concurrent restores of one entry
        share a single read.  Unknown keys are ignored — the entry was
        released or never tracked.
        """
        nm = self._states[node_name]
        if key in nm.resident:
            nm.resident.move_to_end(key)
            return
        pending = nm.restoring.get(key)
        if pending is not None:
            yield pending
            return
        if key not in nm.spilled:
            return
        event = self.env.event()
        nm.restoring[key] = event
        nbytes = nm.spilled.pop(key)
        try:
            yield from self.allocate(node_name, nbytes, key=key)
            cost = self.config.spill_read_time(nbytes)
            tracer = self.env.tracer
            span = None
            if tracer.enabled:
                span = tracer.start(
                    "restore",
                    category="mem",
                    node=node_name,
                    key=label if label is not None else key,
                    nbytes=nbytes,
                )
                tracer.metrics.counter("objectstore.restore.count").inc()
                tracer.metrics.counter("objectstore.restore.bytes").add(nbytes)
                tracer.metrics.counter("objectstore.restore.seconds").add(cost)
            try:
                yield self.env.timeout(cost)
            finally:
                if span is not None:
                    tracer.end(span)
            self.restore_count += 1
            self.restore_bytes += nbytes
            self.restore_seconds += cost
        except BaseException as exc:
            del nm.restoring[key]
            event.fail(exc)
            raise
        del nm.restoring[key]
        event.succeed()

    # -- spilling -----------------------------------------------------------

    def _spill_for(self, nm: _NodeMemory, node: Any, nbytes: int) -> Generator:
        """Spill LRU entries until ``nbytes`` fits under the watermark."""
        target = self._spill_target(node)
        while node.ram_used + nbytes > target and nm.resident:
            yield from self._spill_one(nm, node)

    def _spill_one(self, nm: _NodeMemory, node: Any) -> Generator:
        """Write the least recently used resident entry to disk."""
        key, nbytes = next(iter(nm.resident.items()))
        del nm.resident[key]
        cost = self.config.spill_write_time(nbytes)
        tracer = self.env.tracer
        span = None
        if tracer.enabled:
            span = tracer.start(
                "spill", category="mem", node=node.name, key=key, nbytes=nbytes
            )
            tracer.metrics.counter("objectstore.spill.count").inc()
            tracer.metrics.counter("objectstore.spill.bytes").add(nbytes)
            tracer.metrics.counter("objectstore.spill.seconds").add(cost)
        try:
            yield self.env.timeout(cost)
        finally:
            if span is not None:
                tracer.end(span)
        node.free_ram(nbytes)
        nm.spilled[key] = nbytes
        self.spill_count += 1
        self.spill_bytes += nbytes
        self.spill_seconds += cost
        self._wake(nm.free_waiters)

    # -- fault hook (oom) ----------------------------------------------------

    def clamp_matching(self, target: str, factor: float) -> Generator:
        """Apply an ``oom`` fault: clamp every matching node's RAM.

        Called by :class:`repro.faults.FaultInjector` at the event's
        virtual timestamp.  Node names are matched with ``fnmatch``
        globs, like every other fault target.
        """
        for name in self.cluster.node_names():
            if fnmatch(name, target):
                yield from self.clamp(name, factor)

    def clamp(self, node_name: str, factor: float) -> Generator:
        """Divide ``node_name``'s RAM ceiling by ``factor``.

        With the policy active, residents are spilled until usage fits
        under the new ceiling (the kernel reclaiming under OOM
        pressure).  With it inactive the ceiling just drops — existing
        reservations stay (usage may exceed the new ceiling) and the
        next allocation that does not fit raises, which is exactly the
        seed's hard-fail behaviour under a shrunken node.
        """
        if factor < 1.0:
            raise ValueError(f"oom clamp factor must be >= 1, got {factor}")
        node = self.cluster.node(node_name)
        nm = self._states[node_name]
        node.ram_limit = max(1, int(node.ram_limit / factor))
        if self.active:
            while node.ram_used > node.ram_limit and nm.resident:
                yield from self._spill_one(nm, node)

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _wake(waiters: List[Any]) -> None:
        while waiters:
            waiters.pop(0).succeed()

    # -- introspection -------------------------------------------------------

    def resident_keys(self, node_name: str) -> List[str]:
        """Resident keys in LRU order (head = next spill victim)."""
        return list(self._states[node_name].resident)

    def spilled_keys(self, node_name: str) -> List[str]:
        return list(self._states[node_name].spilled)

    def anonymous_bytes(self, node_name: str) -> int:
        return self._states[node_name].anonymous_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "dormant"
        return (
            f"<MemoryManager {state}: {self.spill_count} spills, "
            f"{self.restore_count} restores, {self.blocked_count} blocked>"
        )
