"""Regression tests for object-store accounting bugs.

Fixed bugs, each pinned here:

* concurrent ``get`` of the same object on the same node used to run
  two transfers and reserve the replica's RAM twice — now the first
  getter transfers and every concurrent getter joins it;
* re-``put`` of an existing ``ref_id`` used to leak the previous
  copy's RAM reservations for the rest of the run;
* a replica landing on an entry that was overwritten (or emptied by a
  fault) while ``migrate_node`` or ``restore`` was mid-yield used to be
  charged to the stale entry: the drain died freeing RAM nobody held,
  or the reservation outlived ``free_all``.
"""

import pytest

from repro.cluster import build_cluster, estimate_bytes
from repro.config import MemoryConfig
from repro.rayx import ObjectRef, RayxRuntime
from repro.sim import Environment
from tests.support.ledger import assert_ledger_laws, assert_resources_released


def make_runtime():
    cluster = build_cluster(Environment())
    return cluster, RayxRuntime(cluster)


# -- concurrent-get dedup (double-charge fix) -------------------------------------


def _concurrent_get_scenario(num_getters):
    """Run ``num_getters`` simultaneous gets of one object on worker-0."""
    cluster, runtime = make_runtime()
    store = runtime.store
    env = cluster.env
    payload = list(range(10_000))
    done = {}

    def producer():
        ref = yield from runtime.put(payload, label="shared")
        done["ref"] = ref
        getters = [
            env.process(store.get(ref, "worker-0")) for _ in range(num_getters)
        ]
        values = []
        for getter in getters:
            values.append((yield getter))
        return values

    values = env.run(until=env.process(producer()))
    return cluster, store, done["ref"], values


def test_concurrent_gets_run_one_transfer():
    cluster, store, ref, values = _concurrent_get_scenario(num_getters=3)
    assert values == [list(range(10_000))] * 3
    assert store.transfers_deduped == 2  # getters 2 and 3 joined getter 1
    # Exactly one replica's worth of RAM is reserved on the fetching node.
    assert cluster.node("worker-0").ram_used == store.nbytes_of(ref)
    assert store.replicas_of(ref) == {"controller", "worker-0"}


def test_concurrent_gets_cost_no_more_than_one():
    solo, _, _, _ = _concurrent_get_scenario(num_getters=1)
    trio, _, _, _ = _concurrent_get_scenario(num_getters=3)
    # The joiners wait on the in-flight transfer, then pay only the
    # per-access mapping cost in parallel — same virtual makespan.
    assert trio.env.now == solo.env.now


# -- put-overwrite RAM release (leak fix) -----------------------------------------


def test_put_overwrite_releases_previous_ram():
    cluster, runtime = make_runtime()
    store = runtime.store
    env = cluster.env
    node = cluster.node("worker-0")

    def scenario():
        ref = ObjectRef(env, label="state")
        yield from store.put(ref, list(range(5_000)), "worker-0")
        first_nbytes = store.nbytes_of(ref)
        assert node.ram_used == first_nbytes
        # A producer re-storing the same logical object (same ref_id)
        # must release the old copy's reservation, not stack a new one
        # on top of it.
        replacement = ObjectRef(env, label="state")
        replacement.ref_id = ref.ref_id
        yield from store.put(replacement, list(range(20_000)), "worker-0")
        assert node.ram_used == store.nbytes_of(replacement)
        assert node.ram_used == estimate_bytes(list(range(20_000)))
        return True

    assert env.run(until=env.process(scenario()))


def test_put_overwrite_releases_every_replica():
    cluster, runtime = make_runtime()
    store = runtime.store
    env = cluster.env

    def scenario():
        ref = ObjectRef(env, label="state")
        yield from store.put(ref, list(range(5_000)), "worker-0")
        yield from store.get(ref, "worker-1")  # second replica
        nbytes = store.nbytes_of(ref)
        assert cluster.node("worker-1").ram_used == nbytes
        replacement = ObjectRef(env, label="state")
        replacement.ref_id = ref.ref_id
        yield from store.put(replacement, list(range(5_000)), "worker-2")
        # Both old replicas released; only the new copy is reserved.
        assert cluster.node("worker-0").ram_used == 0
        assert cluster.node("worker-1").ram_used == 0
        assert cluster.node("worker-2").ram_used == store.nbytes_of(replacement)
        return True

    assert env.run(until=env.process(scenario()))


# -- overwrite / loss while a replica is in flight (stale-entry fixes) ------------

#: The dormant default, and ``mem on``: the ledger is the same code
#: under both, only the reservation primitive differs.
POLICIES = pytest.mark.parametrize(
    "memory", [None, MemoryConfig(enabled=True)], ids=["dormant", "mem-on"]
)
#: Big enough that a cross-node transfer (or its put-time) outlasts the
#: put of ``SMALL`` started 1us into it.
BIG = list(range(200_000))
SMALL = list(range(1_000))


def _race(memory, setup, slow, fast):
    """Start ``slow``, run ``fast`` 1us into it, and wait for both.

    All three are callables ``(store, ref) -> generator | None`` over
    one store and the ref ``setup`` stored on worker-0.
    """
    cluster = build_cluster(Environment(), memory=memory)
    store = RayxRuntime(cluster).store
    env = cluster.env
    ref = ObjectRef(env, label="state")

    def scenario():
        yield from store.put(ref, BIG, "worker-0")
        setup(store, ref)
        racing = env.process(slow(store, ref))
        yield env.timeout(1e-6)
        interloper = fast(store, ref)
        if interloper is not None:
            yield from interloper
        return (yield racing)

    result = env.run(until=env.process(scenario()))
    return cluster, store, ref, result


def _reput_on_worker_2(store, ref):
    replacement = ObjectRef(store.cluster.env, label="state")
    replacement.ref_id = ref.ref_id
    return store.put(replacement, SMALL, "worker-2")


def _lose_a_replica(store, ref):
    # Recorded lineage is what lets a fault drop the last copy.
    store.lineage[ref.ref_id] = (None, ())
    assert store.drop_replica("state") == 1


@POLICIES
def test_reput_during_migration_discards_the_stale_replica(memory):
    cluster, store, ref, counts = _race(
        memory,
        setup=lambda store, ref: None,
        slow=lambda store, ref: store.migrate_node("worker-0", "worker-1"),
        fast=_reput_on_worker_2,
    )
    assert counts == (0, 0)  # the drain returned; nothing was left to move
    assert store.stale_fetches == 1
    assert cluster.node("worker-0").ram_used == 0
    assert cluster.node("worker-1").ram_used == 0
    assert store.bytes_live == store.nbytes_of(ref) == estimate_bytes(SMALL)
    assert_resources_released(cluster, object_stores=[store])


@POLICIES
def test_replica_loss_during_migration_keeps_the_ledger_exact(memory):
    cluster, store, ref, counts = _race(
        memory,
        setup=lambda store, ref: None,
        slow=lambda store, ref: store.migrate_node("worker-0", "worker-1"),
        fast=_lose_a_replica,
    )
    assert store.replicas_lost == 1
    assert_ledger_laws(cluster, [store], settled=True)
    assert_resources_released(cluster, object_stores=[store])


@POLICIES
def test_reput_during_restore_discards_the_stale_replica(memory):
    cluster, store, ref, _ = _race(
        memory,
        setup=_lose_a_replica,  # the only one: a zero-replica object
        slow=lambda store, ref: store.restore(ref, BIG, "worker-1"),
        fast=_reput_on_worker_2,
    )
    assert cluster.node("worker-1").ram_used == 0
    assert store.replicas_of(ref) == {"worker-2"}
    assert_resources_released(cluster, object_stores=[store])
