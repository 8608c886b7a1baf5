"""Regression tests for object-store behaviour under memory pressure.

Pins three fixed bugs plus the live-bytes telemetry and the spilling
integration:

* an interrupted ``put`` (fault kill between the RAM reservation and
  the copy finishing) used to leak the reservation for the run;
* an in-flight ``_fetch_replica`` whose object was overwritten mid-
  transfer used to add its replica to the *old* entry, double-charging
  node RAM forever;
* ``restore`` of an object missing from the store raised a bare
  ``KeyError`` instead of :class:`ObjectNotFound`.
"""

import pytest

from repro.cluster import build_cluster, estimate_bytes
from repro.config import MemoryConfig
from repro.errors import InjectedFault, ObjectNotFound
from repro.rayx import ObjectRef, RayxRuntime
from repro.sim import Environment


def make_runtime(memory=None):
    cluster = build_cluster(Environment(), memory=memory)
    return cluster, RayxRuntime(cluster)


# -- interrupted put releases its reservation (leak fix) ----------------------


def test_interrupted_put_releases_ram():
    cluster, runtime = make_runtime()
    store = runtime.store
    env = cluster.env
    node = cluster.node("worker-0")
    ref = ObjectRef(env, label="doomed")
    gen = store.put(ref, list(range(5_000)), "worker-0")
    # Step the process manually: the first yield is the copy timeout,
    # reached only after the RAM was reserved.
    next(gen)
    nbytes = estimate_bytes(list(range(5_000)))
    assert node.ram_used == nbytes
    # A fault kill interrupts the copy mid-flight.
    with pytest.raises(InjectedFault):
        gen.throw(InjectedFault("killed mid-copy"))
    assert node.ram_used == 0, "interrupted put leaked its RAM reservation"
    assert not store.contains(ref)
    assert store.bytes_live == 0


def test_interrupted_put_close_also_releases():
    cluster, runtime = make_runtime()
    store = runtime.store
    env = cluster.env
    node = cluster.node("worker-0")
    ref = ObjectRef(env, label="doomed")
    gen = store.put(ref, list(range(5_000)), "worker-0")
    next(gen)
    assert node.ram_used > 0
    gen.close()  # GeneratorExit is a BaseException, not an Exception
    assert node.ram_used == 0


# -- overwrite during in-flight fetch (stale-entry fix) -----------------------


def _overwrite_mid_transfer_scenario():
    """Re-``put`` an object while a cross-node fetch of it is on the wire."""
    cluster, runtime = make_runtime()
    store = runtime.store
    env = cluster.env
    # The original must be big enough that its cross-node transfer
    # (~1.8ms) outlasts the replacement's put (~1.2ms) started 1us in.
    payload = list(range(200_000))
    replacement_payload = list(range(1_000))
    out = {}

    def scenario():
        ref = yield from runtime.put(payload, label="state")
        out["ref"] = ref
        getter = env.process(store.get(ref, "worker-1"))

        def overwriter():
            # Land inside the transfer window: the fetch is already in
            # flight when the new copy replaces the entry.
            yield env.timeout(1e-6)
            replacement = ObjectRef(env, label="state")
            replacement.ref_id = ref.ref_id
            yield from store.put(replacement, replacement_payload, "worker-2")

        writer = env.process(overwriter())
        value = yield getter
        yield writer
        out["value"] = value

    env.run(until=env.process(scenario()))
    return cluster, store, out


def test_overwrite_mid_transfer_discards_stale_replica():
    cluster, store, out = _overwrite_mid_transfer_scenario()
    assert store.stale_fetches == 1
    nbytes = store.nbytes_of(out["ref"])
    # worker-1 holds exactly one live replica's worth of RAM — the
    # stale transfer's copy was discarded, not charged to the old entry.
    assert cluster.node("worker-1").ram_used == nbytes
    assert store.replicas_of(out["ref"]) >= {"worker-1", "worker-2"}


def test_overwrite_mid_transfer_serves_the_new_value():
    _, _, out = _overwrite_mid_transfer_scenario()
    # The getter re-resolves after the stale fetch and dereferences the
    # replacement object, never the overwritten one.
    assert out["value"] == list(range(1_000))


def test_overwrite_mid_transfer_keeps_bytes_live_consistent():
    cluster, store, out = _overwrite_mid_transfer_scenario()
    replicas = store.replicas_of(out["ref"])
    assert store.bytes_live == len(replicas) * store.nbytes_of(out["ref"])


# -- restore of a missing object (error-type fix) -----------------------------


def test_restore_missing_object_raises_object_not_found():
    cluster, runtime = make_runtime()
    store = runtime.store
    env = cluster.env
    ref = ObjectRef(env, label="ghost")
    gen = store.restore(ref, [1, 2, 3], "worker-0")
    with pytest.raises(ObjectNotFound, match="ghost"):
        next(gen)


# -- bytes_live telemetry -----------------------------------------------------


def test_bytes_live_tracks_replicas_not_history():
    cluster, runtime = make_runtime()
    store = runtime.store
    env = cluster.env

    def scenario():
        ref = yield from runtime.put(list(range(5_000)), label="a")
        nbytes = store.nbytes_of(ref)
        assert store.bytes_live == nbytes
        yield from store.get(ref, "worker-1")  # second replica
        assert store.bytes_live == 2 * nbytes
        store.drop_replica("a")  # eviction decrements
        assert store.bytes_live == nbytes
        replacement = ObjectRef(env, label="a")
        replacement.ref_id = ref.ref_id
        yield from store.put(replacement, list(range(20_000)), "worker-2")
        # Overwrite released the old copy; only the new one is live.
        assert store.bytes_live == store.nbytes_of(replacement)
        # bytes_stored stays monotonic (throughput, not residency).
        assert store.bytes_stored == nbytes + store.nbytes_of(replacement)
        return True

    assert env.run(until=env.process(scenario()))


# -- spilling integration (repro.mem enabled) ---------------------------------


def _tiny_ram_config(ram_bytes):
    return MemoryConfig(enabled=True, node_ram_bytes=ram_bytes)


def test_put_under_pressure_spills_lru_and_get_restores():
    payload_a = list(range(30_000))
    payload_b = list(range(30_000, 60_000))
    nbytes = estimate_bytes(payload_a)
    # Room for ~1.5 objects: the second put must spill the first.
    cluster, runtime = make_runtime(_tiny_ram_config(int(nbytes * 1.5)))
    store = runtime.store
    env = cluster.env
    memory = cluster.memory

    def scenario():
        ref_a = yield from runtime.put(payload_a, label="cold")
        ref_b = yield from runtime.put(payload_b, label="hot")
        assert memory.spill_count == 1
        assert memory.is_spilled("controller", ref_a.ref_id)
        before = env.now
        value = yield from store.get(ref_a, "controller")
        assert value == payload_a
        # The restore paid real virtual disk time on top of mapping.
        assert env.now - before > cluster.config.object_store.get_time(nbytes)
        assert memory.restore_count == 1
        assert not memory.is_spilled("controller", ref_a.ref_id)
        # Restoring A pushed B out (LRU), RAM stays under the ceiling.
        assert cluster.node("controller").ram_used <= int(nbytes * 1.5)
        yield ref_b.ready
        return True

    assert env.run(until=env.process(scenario()))
    assert memory.spill_bytes >= nbytes
    assert memory.spill_seconds > 0


def test_spilled_replica_eviction_forgets_the_spill():
    payload = list(range(30_000))
    nbytes = estimate_bytes(payload)
    cluster, runtime = make_runtime(_tiny_ram_config(int(nbytes * 1.5)))
    store = runtime.store
    env = cluster.env
    memory = cluster.memory

    def scenario():
        ref_a = yield from runtime.put(payload, label="cold")
        yield from runtime.put(list(range(30_000, 60_000)), label="hot")
        assert memory.is_spilled("controller", ref_a.ref_id)
        # free_all (runtime shutdown) must clear spilled entries too.
        store.free_all()
        assert not memory.is_spilled("controller", ref_a.ref_id)
        assert memory.resident_keys("controller") == []
        return True

    assert env.run(until=env.process(scenario()))


# -- free_all during an in-flight fetch (bare-KeyError fix) -------------------


def test_free_all_mid_fetch_raises_objectnotfound_not_keyerror():
    """Freeing the store while a cross-node fetch is on the wire.

    The runtime tears the store down (``free_all``) whenever a driver
    finishes; a getter whose transfer was still in flight then resumed
    into ``del self._inflight[key]`` on a cleared dict and died with a
    bare ``KeyError`` instead of the documented
    :class:`ObjectNotFound`.  Callers matching on ObjectNotFound (the
    lineage-reconstruction path among them) never saw the real story.
    """
    cluster, runtime = make_runtime()
    store = runtime.store
    env = cluster.env
    out = {}

    def scenario():
        # Big enough that the cross-node transfer outlasts the freer.
        ref = yield from runtime.put(list(range(200_000)), label="state")
        getter = env.process(store.get(ref, "worker-1"))

        def freer():
            yield env.timeout(1e-6)  # land inside the transfer window
            store.free_all()

        env.process(freer())
        try:
            yield getter
        except ObjectNotFound:
            out["raised"] = "object-not-found"
        except KeyError:  # pragma: no cover - the regression
            out["raised"] = "bare-keyerror"
        return True

    assert env.run(until=env.process(scenario()))
    assert out["raised"] == "object-not-found"
    assert store.bytes_live == 0


def test_free_all_mid_rebuild_raises_objectnotfound_not_keyerror():
    """Same race through the lineage-rebuild path (`_rebuild`)."""
    cluster, runtime = make_runtime()
    store = runtime.store
    env = cluster.env
    out = {}

    def scenario():
        def producer(context):
            yield from context.compute(0.01)
            return list(range(50_000))

        ref = runtime.submit(producer, label="built")
        yield ref.ready
        # Lineage is only auto-recorded under fault injection; record
        # it by hand so the bare get() below takes the rebuild path.
        store.lineage[ref.ref_id] = (producer, ())
        # Drop every replica so the next get must rebuild from lineage.
        stored = store._objects[ref.ref_id]
        for node_name in list(stored.replicas):
            store._detach(stored, node_name, lost=True)
        getter = env.process(store.get(ref, "worker-1"))

        def freer():
            yield env.timeout(1e-6)  # land inside the rebuild window
            store.free_all()

        env.process(freer())
        try:
            yield getter
        except ObjectNotFound:
            out["raised"] = "object-not-found"
        except KeyError:  # pragma: no cover - the regression
            out["raised"] = "bare-keyerror"
        return True

    assert env.run(until=env.process(scenario()))
    assert out["raised"] == "object-not-found"
