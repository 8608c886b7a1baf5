"""Plasma-like shared object store.

The paper's GOTTA analysis (Section IV-E) attributes the script
paradigm's slowdown to Ray's shared object space: "Ray required
uploading large objects such as models into an object store, which
required a lot of memory and added execution time for each access."

The model here:

* ``put`` charges serialize+copy time proportional to object size and
  reserves RAM on the owning node;
* ``get`` from a node holding a replica charges a per-access
  mapping/validation cost proportional to size;
* ``get`` from another node additionally pays a network transfer and
  caches a local copy, so repeated access from the same node pays the
  transfer only once (as Ray's per-node plasma stores do).  Concurrent
  getters on one node share a single in-flight transfer — the second
  dereference waits on the first instead of paying (and reserving RAM
  for) a duplicate copy.

Fault tolerance (``repro.faults``): the transfer source fails over to
any surviving replica when the owner's copy is lost, and an object
whose replicas are *all* lost is rebuilt from recorded task lineage by
the runtime's reconstructor before the ``get`` proceeds.

Memory pressure (``repro.mem``): when the cluster's memory policy is
enabled, every replica reservation goes through the
:class:`repro.mem.MemoryManager` — admissions may spill LRU replicas
to disk or block behind a watermark instead of raising, and a ``get``
of a spilled replica pays the disk read back before the mapping cost.

The replica ledger: :meth:`ObjectStore._attach` and
:meth:`ObjectStore._detach` are the only code that touches node RAM,
a stored object's replica set or ``bytes_live``, and the only place
the dormant/enabled memory policy forks (dormant — the default — is
the seed's direct ``Node.allocate_ram`` arithmetic).  Every public
method that gains or loses a replica goes through the pair, which is
what makes ``bytes_live == Σ nbytes·|replicas|`` and "a node's
reserved RAM covers the replicas listed on it" hold by construction
(``docs/architecture.md``, invariants).
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import Any, Callable, Dict, Generator, Optional, Set, Tuple

from repro.cluster import Cluster, estimate_bytes
from repro.config import ObjectStoreConfig
from repro.errors import DrainError, ObjectNotFound, ReconstructionError
from repro.rayx.objectref import ObjectRef

__all__ = ["ObjectStore"]

#: Pseudo-node key marking an in-flight lineage reconstruction.
_REBUILD = "__rebuild__"


class _StoredObject:
    __slots__ = ("value", "nbytes", "owner_node", "replicas", "label", "ref_id")

    def __init__(
        self, value: Any, nbytes: int, owner_node: str, label: str, ref_id: str
    ) -> None:
        self.value = value
        self.nbytes = nbytes
        self.owner_node = owner_node
        #: Filled by ``ObjectStore._attach`` only.
        self.replicas: Set[str] = set()
        self.label = label
        self.ref_id = ref_id


class ObjectStore:
    """Cluster-wide object store with per-node replica tracking."""

    def __init__(self, cluster: Cluster, config: ObjectStoreConfig) -> None:
        self.cluster = cluster
        self.config = config
        self._objects: Dict[str, _StoredObject] = {}
        #: One event per in-flight transfer/rebuild, keyed by
        #: ``(ref_id, node)``; late arrivals wait on it instead of
        #: duplicating the work (and the RAM reservation).
        self._inflight: Dict[Tuple[str, str], Any] = {}
        #: ``(ref_id, node)`` pairs with an ``_attach`` between its
        #: reservation and its verdict; the value is the event later
        #: attaches of the same pair wait on (None until one does).
        self._attaching: Dict[Tuple[str, str], Any] = {}
        #: ``ref_id -> (fn, args)`` recorded by the runtime at submit
        #: time; the basis for lineage reconstruction.
        self.lineage: Dict[str, Tuple] = {}
        #: Generator function ``(ref) -> value`` installed by the
        #: runtime; re-executes the producing task to rebuild a lost
        #: object (charging its full virtual cost).
        self.reconstructor: Optional[Callable[[ObjectRef], Generator]] = None
        # Telemetry used by tests and EXPERIMENTS.md narratives.
        self.put_count = 0
        self.get_count = 0
        #: Results installed by the cache's free replay (``adopt``) —
        #: stored and RAM-accounted like puts, but never charged.
        self.adopted = 0
        #: Cumulative bytes ever stored (monotonic, for throughput
        #: narratives) versus bytes of replicas currently tracked —
        #: ``bytes_live`` is decremented on overwrite and eviction, so
        #: memory reports do not overstate residency.
        self.bytes_stored = 0
        self.bytes_live = 0
        #: Replicas that arrived (fetch, migration, restore) to find
        #: their object overwritten while they were in flight, or the
        #: node already holding a copy; they are discarded instead of
        #: being charged against the *old* entry.
        self.stale_fetches = 0
        #: Inter-node replica fetches actually performed, and the
        #: virtual seconds they took — what the locality placement
        #: policy exists to reduce (see ``tests/sched/test_policies.py``).
        self.transfers = 0
        self.transfer_seconds = 0.0
        self.transfers_deduped = 0
        self.replicas_lost = 0
        self.reconstructions = 0
        #: Replicas shipped off draining nodes (``repro.elastic``) and
        #: the bytes they carried — scale-down's data-movement bill.
        self.migrations = 0
        self.migrated_bytes = 0
        cluster.faults.register_store(self)
        cluster.register_store(self)

    def put(
        self, ref: ObjectRef, value: Any, node_name: str, parent=None
    ) -> Generator:
        """Simulation process storing ``value`` on ``node_name``.

        Fulfils ``ref`` once the copy completes; task and actor results
        land here under the same cost model.  Re-``put`` of an
        already-stored ``ref_id`` releases the previous entry's replica
        RAM reservations before the new copy is charged — overwriting
        must not leak node RAM for the rest of the run.
        """
        nbytes = estimate_bytes(value)
        tracer = self.cluster.env.tracer
        span = None
        if tracer.enabled:
            span = tracer.start(
                "put",
                category="objectstore",
                node=node_name,
                parent=parent,
                ref=ref.label,
                nbytes=nbytes,
            )
            tracer.metrics.counter("objectstore.put.bytes").add(nbytes)
            tracer.metrics.counter("objectstore.put.count").inc()
        try:
            stored = _StoredObject(value, nbytes, node_name, ref.label, ref.ref_id)
            yield from self._attach(
                stored, node_name, self.config.put_time(nbytes), fresh=True
            )
            self.put_count += 1
            self.bytes_stored += nbytes
        finally:
            if span is not None:
                tracer.end(span)
        ref.fulfil(value, node_name, nbytes)
        return ref

    def adopt(
        self, ref: ObjectRef, value: Any, node_name: str
    ) -> Generator:
        """Install a cache-hit result without the serialize+copy charge.

        ``repro.cache``'s hit path replays the (virtually free) real
        computation and lands the value here: the RAM reservation is
        still made — cached results occupy the store and compose with
        ``repro.mem`` spilling exactly like charged puts — but no
        ``put_time`` elapses.  Fulfils ``ref`` like :meth:`put`.
        """
        nbytes = estimate_bytes(value)
        stored = _StoredObject(value, nbytes, node_name, ref.label, ref.ref_id)
        yield from self._attach(stored, node_name, fresh=True)
        self.adopted += 1
        self.bytes_stored += nbytes
        tracer = self.cluster.env.tracer
        if tracer.enabled:
            tracer.metrics.counter("objectstore.adopt.count").inc()
            tracer.metrics.counter("objectstore.adopt.bytes").add(nbytes)
        ref.fulfil(value, node_name, nbytes)
        return ref

    def peek(self, ref: ObjectRef) -> Generator:
        """Dereference ``ref`` without charging any access cost.

        Used by the cache's free replay: the argument was already read
        (and charged) by the run that populated the cache, so the
        replay only needs the Python value.  Waits for the producer
        like :meth:`get` but touches no replicas, pays no transfer and
        no mapping cost.  The value survives replica eviction — only
        :meth:`free_all` forgets it.
        """
        value = yield ref.ready
        stored = self._objects.get(ref.ref_id)
        if stored is None:
            raise ObjectNotFound(f"{ref.ref_id} fulfilled but not stored")
        return stored.value

    def get(self, ref: ObjectRef, node_name: str, parent=None) -> Generator:
        """Simulation process dereferencing ``ref`` from ``node_name``.

        Waits for the object to exist, rebuilds it from lineage if all
        replicas were lost, pays the transfer if this node holds no
        replica yet (joining any transfer already in flight), then pays
        the per-access mapping cost.
        """
        value = yield ref.ready
        stored = self._objects.get(ref.ref_id)
        if stored is None:
            raise ObjectNotFound(f"{ref.ref_id} fulfilled but not stored")
        # The span opens only after the object exists: waiting for a
        # producer is scheduling time, not object-store cost.
        tracer = self.cluster.env.tracer
        span = None
        if tracer.enabled:
            span = tracer.start(
                "get",
                category="objectstore",
                node=node_name,
                parent=parent,
                ref=ref.label,
                nbytes=stored.nbytes,
            )
            tracer.metrics.counter("objectstore.get.bytes").add(stored.nbytes)
            tracer.metrics.counter("objectstore.get.count").inc()
        try:
            while True:
                # Re-resolve after every wait: a re-``put`` may have
                # replaced the entry while a rebuild or transfer was in
                # flight, and accounting against the stale object would
                # double-charge node RAM for the rest of the run.
                stored = self._objects.get(ref.ref_id)
                if stored is None:
                    raise ObjectNotFound(
                        f"{ref.ref_id} disappeared while being dereferenced"
                    )
                if node_name in stored.replicas:
                    break
                if not stored.replicas:
                    yield from self._rebuild(ref, span)
                    continue
                yield from self._fetch_replica(ref, stored, node_name)
            mem = self.cluster.memory
            if mem.active:
                # A spilled replica pays the disk read back (and may
                # spill colder entries) before the mapping cost below.
                yield from mem.ensure_resident(
                    node_name, ref.ref_id, label=stored.label
                )
            yield self.cluster.env.timeout(self.config.get_time(stored.nbytes))
            self.get_count += 1
            # A rebuild re-ran the producer; hand back the fresh value
            # so callers observe exactly what the store holds.
            value = stored.value
        finally:
            if span is not None:
                tracer.end(span)
        return value

    def _fetch_replica(
        self, ref: ObjectRef, stored: _StoredObject, node_name: str
    ) -> Generator:
        """Materialize a local replica on ``node_name`` (one transfer).

        The first getter on a node performs the transfer and reserves
        the RAM; concurrent getters wait on its completion event, so
        one replica is charged exactly once however many processes
        dereference simultaneously.
        """
        key = (ref.ref_id, node_name)
        existing = self._inflight.get(key)
        if existing is not None:
            self.transfers_deduped += 1
            tracer = self.cluster.env.tracer
            if tracer.enabled:
                tracer.metrics.counter("objectstore.get.deduped").inc()
            yield existing
            return
        event = self.cluster.env.event()
        self._inflight[key] = event
        started = self.cluster.env.now
        try:
            source = self._transfer_source(stored)
            yield self.cluster.env.process(
                self.cluster.transfer(source, node_name, stored.nbytes)
            )
            # A re-``put`` that overwrote the entry while the bytes were
            # on the wire makes this copy stale: ``_attach`` discards
            # it, and the getter's loop re-resolves the live entry.
            yield from self._attach(stored, node_name)
        except BaseException as exc:
            # ``pop`` (not ``del``): a concurrent ``free_all`` may have
            # cleared the in-flight table while the transfer generator
            # was suspended; a bare ``KeyError`` here would mask the
            # real failure mode (the getter's loop re-resolves and
            # raises :class:`ObjectNotFound`).
            self._inflight.pop(key, None)
            event.fail(exc)
            raise
        self._inflight.pop(key, None)
        event.succeed()
        elapsed = self.cluster.env.now - started
        self.transfers += 1
        self.transfer_seconds += elapsed
        tracer = self.cluster.env.tracer
        if tracer.enabled:
            tracer.metrics.counter("objectstore.transfer.count").inc()
            tracer.metrics.counter("objectstore.transfer.seconds").add(elapsed)

    def _transfer_source(self, stored: _StoredObject) -> str:
        """Pick the replica to fetch from: the owner, else a survivor.

        Replica failover: when the owner's copy was lost (node crash or
        injected replica loss) the transfer reads from the
        lexicographically first surviving replica — deterministic, so
        recovery timelines replay identically.
        """
        faults = self.cluster.env.faults
        now = self.cluster.env.now
        if stored.owner_node in stored.replicas and not faults.node_down(
            stored.owner_node, now
        ):
            return stored.owner_node
        for name in sorted(stored.replicas):
            if not faults.node_down(name, now):
                return name
        # Every replica host is inside an outage window; read from the
        # first one anyway rather than deadlocking (the data survives,
        # the window only kills new work placed there).
        return sorted(stored.replicas)[0]

    def _rebuild(self, ref: ObjectRef, parent=None) -> Generator:
        """Re-create a zero-replica object from its recorded lineage."""
        key = (ref.ref_id, _REBUILD)
        existing = self._inflight.get(key)
        if existing is not None:
            yield existing
            return
        if self.reconstructor is None or ref.ref_id not in self.lineage:
            raise ReconstructionError(
                f"object {ref.label!r} ({ref.ref_id}) lost all replicas and "
                "has no recorded lineage to rebuild from"
            )
        event = self.cluster.env.event()
        self._inflight[key] = event
        try:
            yield from self.reconstructor(ref)
            self.reconstructions += 1
        except BaseException as exc:
            # ``pop`` for the same reason as in ``_fetch_replica``: the
            # table may have been cleared underneath the suspended
            # rebuild generator.
            self._inflight.pop(key, None)
            event.fail(exc)
            raise
        self._inflight.pop(key, None)
        event.succeed()

    def restore(
        self, ref: ObjectRef, value: Any, node_name: str, charge: bool = True
    ) -> Generator:
        """Re-store a rebuilt object on ``node_name`` (reconstruction).

        Charges the full ``put`` cost and re-reserves the RAM; the node
        becomes the object's new owner.  ``charge=False`` (the cache's
        free reconstruction replay) keeps the RAM reservation but skips
        the ``put_time``.
        """
        stored = self._objects.get(ref.ref_id)
        if stored is None:
            raise ObjectNotFound(
                f"cannot restore {ref.label!r} ({ref.ref_id}): "
                "it is not in the object store"
            )
        charge_s = self.config.put_time(stored.nbytes) if charge else None
        if (yield from self._attach(stored, node_name, charge_s)):
            stored.value = value
            stored.owner_node = node_name

    # -- fault hooks (called by repro.faults) -----------------------------------

    def drop_replica(self, target: str) -> int:
        """Drop one replica of the first stored object matching ``target``.

        Chooses deterministically: insertion order over objects, and
        within an object a non-owner replica first (exercising owner
        failover last).  The final copy of an object is only dropped
        when lineage can rebuild it; otherwise the object is skipped.
        Returns the number of replicas dropped (0 or 1).
        """
        for ref_id, stored in self._objects.items():
            if not fnmatch(stored.label, target) or not stored.replicas:
                continue
            if len(stored.replicas) == 1 and ref_id not in self.lineage:
                continue
            non_owners = sorted(stored.replicas - {stored.owner_node})
            victim = non_owners[0] if non_owners else stored.owner_node
            self._detach(stored, victim, lost=True)
            return 1
        return 0

    def evict_node(self, node_name: str) -> int:
        """Drop every replica hosted on ``node_name`` (node crash).

        An object whose *only* replica lived there survives unless
        lineage can rebuild it — dropping it would make the value
        unrecoverable, which no schedule is allowed to do.
        Returns the number of replicas dropped.
        """
        dropped = 0
        for ref_id, stored in self._objects.items():
            if node_name not in stored.replicas:
                continue
            if len(stored.replicas) == 1 and ref_id not in self.lineage:
                continue
            self._detach(stored, node_name, lost=True)
            dropped += 1
        return dropped

    def migrate_node(self, node_name: str, target: Optional[str]) -> Generator:
        """Simulation process relocating every replica off ``node_name``.

        The drain half of the node-kill machinery: a replica that is
        redundant (another node holds a copy) is dropped for free, but a
        *sole* replica is first shipped to ``target`` — paying a spill
        restore when it sits on disk, the inter-node transfer, and the
        target's RAM admission — so no value is lost.  Raises
        :class:`DrainError` when a sole replica exists and no surviving
        target is available.  Returns ``(migrated, dropped)`` counts.
        """
        migrated = dropped = 0
        mem = self.cluster.memory
        for ref_id, stored in list(self._objects.items()):
            if node_name not in stored.replicas:
                continue
            if len(stored.replicas) == 1:
                if target is None:
                    raise DrainError(
                        f"cannot drain {node_name!r}: sole replica of "
                        f"{stored.label!r} has no surviving target node"
                    )
                if mem.active:
                    yield from mem.ensure_resident(
                        node_name, ref_id, label=stored.label
                    )
                yield self.cluster.env.process(
                    self.cluster.transfer(node_name, target, stored.nbytes)
                )
                # The transfer yielded: the entry may have been
                # overwritten, or ``target`` served by a concurrent
                # fetch — either way there is nothing left to land.
                if (yield from self._attach(stored, target)):
                    migrated += 1
                    self.migrated_bytes += stored.nbytes
            else:
                dropped += 1
            self._detach(stored, node_name)
        self.migrations += migrated
        tracer = self.cluster.env.tracer
        if tracer.enabled and (migrated or dropped):
            tracer.metrics.counter(
                "objectstore.migrated", node=node_name
            ).add(migrated)
        return (migrated, dropped)

    # -- the replica ledger ------------------------------------------------------

    def _attach(
        self,
        stored: _StoredObject,
        node_name: str,
        charge_s: Optional[float] = None,
        fresh: bool = False,
    ) -> Generator:
        """Simulation process landing a replica of ``stored`` on ``node_name``.

        Reserves the RAM, pays ``charge_s`` when given (``put_time``),
        and only then — after every yield — lists the replica, provided
        ``stored`` is still the entry its ``ref_id`` resolves to and
        the node has no copy yet; otherwise the reservation is handed
        back and the attach counts as a stale fetch.  A ``fresh`` entry
        (``put`` / ``adopt``) is never stale: it releases whatever
        answers to its ``ref_id`` — before reserving, so an overwrite
        frees the old copy first, and again on landing — and becomes
        visible in ``_objects`` together with this first replica, never
        with zero.  Returns whether the replica was listed.

        With the policy dormant and no charge this never yields, so it
        schedules no kernel event.
        """
        pair = (stored.ref_id, node_name)
        # The memory manager tracks one reservation per pair, so two
        # attaches of the same pair take turns.
        while pair in self._attaching:
            if self._attaching[pair] is None:
                self._attaching[pair] = self.cluster.env.event()
            yield self._attaching[pair]
        self._attaching[pair] = None
        try:
            if not self._admit(stored, node_name, fresh):
                return False
            mem = self.cluster.memory
            if mem.active:
                yield from mem.allocate(node_name, stored.nbytes, key=stored.ref_id)
            else:
                self.cluster.node(node_name).allocate_ram(stored.nbytes)
            try:
                if charge_s is not None:
                    yield self.cluster.env.timeout(charge_s)
            except BaseException:
                # Interrupted (fault kill, generator close) with the RAM
                # reserved and no replica listed to own it.
                self._unreserve(stored, node_name)
                raise
            if not self._admit(stored, node_name, fresh):
                self._unreserve(stored, node_name)
                return False
            self._objects[stored.ref_id] = stored
            stored.replicas.add(node_name)
            self.bytes_live += stored.nbytes
            return True
        finally:
            waiters = self._attaching.pop(pair)
            if waiters is not None:
                waiters.succeed()

    def _admit(self, stored: _StoredObject, node_name: str, fresh: bool) -> bool:
        """Whether a replica of ``stored`` may (still) land on ``node_name``.

        Not a pure predicate: a fresh entry is admitted by releasing the
        entry it replaces, and a refusal is counted in ``stale_fetches``.
        """
        current = self._objects.get(stored.ref_id)
        if fresh:
            if current is not None:
                self._release_entry(current)
            return True
        if current is stored and node_name not in stored.replicas:
            return True
        self.stale_fetches += 1
        return False

    def _detach(
        self, stored: _StoredObject, node_name: str, lost: bool = False
    ) -> None:
        """Unlist ``node_name``'s replica of ``stored`` and free its RAM.

        A no-op unless the node currently holds the replica.  ``lost``
        separates a crash or injected loss (counted in
        ``replicas_lost``) from a drain or overwrite, where the copy was
        relocated, redundant or superseded.
        """
        if node_name not in stored.replicas:
            return
        stored.replicas.discard(node_name)
        self._unreserve(stored, node_name)
        self.bytes_live -= stored.nbytes
        if lost:
            self.replicas_lost += 1
        if stored.owner_node == node_name and stored.replicas:
            stored.owner_node = sorted(stored.replicas)[0]

    def _release_entry(self, stored: _StoredObject) -> None:
        for node_name in sorted(stored.replicas):
            self._detach(stored, node_name)

    def _unreserve(self, stored: _StoredObject, node_name: str) -> None:
        mem = self.cluster.memory
        if mem.active:
            # The reservation may be RAM-resident or spilled to disk;
            # the manager frees whichever representation exists.
            mem.release(node_name, stored.ref_id)
        else:
            self.cluster.node(node_name).free_ram(stored.nbytes)

    # -- queries / teardown ------------------------------------------------------

    def contains(self, ref: ObjectRef) -> bool:
        return ref.ref_id in self._objects

    def replicas_of(self, ref: ObjectRef) -> Set[str]:
        """Node names currently holding a replica (copy)."""
        stored = self._objects.get(ref.ref_id)
        return set(stored.replicas) if stored is not None else set()

    def nbytes_of(self, ref: ObjectRef) -> int:
        """Stored size of a fulfilled ref."""
        try:
            return self._objects[ref.ref_id].nbytes
        except KeyError:
            raise ObjectNotFound(f"{ref.ref_id} is not in the object store") from None

    def free_all(self) -> None:
        """Release every replica's RAM reservation (runtime shutdown)."""
        for stored in self._objects.values():
            self._release_entry(stored)
        self._objects.clear()
        self._inflight.clear()
        self.lineage.clear()
