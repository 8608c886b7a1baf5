"""The resource-release laws a run must leave behind: the object store's
byte ledger, node RAM and vCPUs, and the workflow channels."""


def assert_ledger_laws(cluster, object_stores, settled=False):
    """The object store's two conservation laws; they hold at any instant.

    ``bytes_live`` counts exactly the listed replicas, and a node's
    reserved RAM covers every replica listed on it that is not spilled
    to disk.  An attach still in flight only makes ``ram_used`` larger;
    once everything ``settled`` (and the stores are the only RAM users)
    the two are equal.
    """
    entries = [e for store in object_stores for e in store._objects.values()]
    for store in object_stores:
        listed = sum(e.nbytes * len(e.replicas) for e in store._objects.values())
        assert store.bytes_live == listed, (
            f"bytes_live {store.bytes_live} != {listed} bytes of listed replicas"
        )
    for node in [cluster.controller, *cluster.workers]:
        resident = sum(
            e.nbytes
            for e in entries
            if node.name in e.replicas
            and not cluster.memory.is_spilled(node.name, e.ref_id)
        )
        covered = node.ram_used == resident if settled else node.ram_used >= resident
        assert covered, (
            f"{node.name} reserves {node.ram_used} bytes for {resident} "
            "bytes of listed replicas"
        )


def assert_resources_released(cluster, stores=(), object_stores=()):
    assert_ledger_laws(cluster, object_stores)
    for store in object_stores:
        store.free_all()
    for node in [cluster.controller, *cluster.workers]:
        assert node.ram_used == 0, f"{node.name} leaked {node.ram_used} bytes"
        assert node.cpus.available == node.cpus.capacity, (
            f"{node.name} leaked {node.cpus.capacity - node.cpus.available} vCPUs"
        )
        # Kernel-level check: no dead process may stay queued in the
        # vCPU FIFO — a stale waiter at the head would starve every
        # request behind it (the leak `ResourceRequest.cancel` exists
        # to prevent).
        assert not node.cpus._waiters, (
            f"{node.name} has {len(node.cpus._waiters)} stale vCPU waiters"
        )
    for store in stores:
        assert not store.items, f"channel store left {len(store.items)} items"
        assert not store._putters, (
            f"channel store left {len(store._putters)} stale putters"
        )
        assert not store._getters, (
            f"channel store left {len(store._getters)} stale getters"
        )
