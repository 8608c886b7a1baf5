"""Unit tests for the network model and cluster topology."""

import pytest

from repro.cluster import build_cluster
from repro.config import NetworkConfig, default_config
from repro.errors import UnknownNode
from repro.sim import Environment


def test_transfer_time_formula():
    net = NetworkConfig(latency_s=0.001, bandwidth_bytes_per_s=1e9)
    assert net.transfer_time(1e9) == pytest.approx(1.001)
    assert net.transfer_time(0) == pytest.approx(0.001)


def test_transfer_time_rejects_negative():
    with pytest.raises(ValueError):
        NetworkConfig().transfer_time(-1)


def test_loopback_transfer_is_free():
    env = Environment()
    cluster = build_cluster(env)

    def proc():
        yield env.process(cluster.transfer("worker-0", "worker-0", 10**9))

    env.run(until=env.process(proc()))
    assert env.now == 0.0
    assert cluster.network.bytes_moved == 0


def test_cross_node_transfer_charges_time_and_counts_bytes():
    env = Environment()
    cluster = build_cluster(env)
    net = default_config().topology.network

    def proc():
        yield env.process(cluster.transfer("controller", "worker-1", 10**8))

    env.run(until=env.process(proc()))
    assert env.now == pytest.approx(net.transfer_time(10**8))
    assert cluster.network.bytes_moved == 10**8
    assert cluster.network.transfers == 1


def test_topology_matches_paper():
    env = Environment()
    cluster = build_cluster(env)
    assert cluster.num_workers == 4
    assert cluster.controller.num_cpus == 8
    assert cluster.workers[0].ram_bytes == 64 * 2**30
    assert sorted(cluster.node_names()) == [
        "controller",
        "worker-0",
        "worker-1",
        "worker-2",
        "worker-3",
    ]


def test_unknown_node_lookup_raises():
    env = Environment()
    cluster = build_cluster(env)
    with pytest.raises(UnknownNode):
        cluster.node("worker-9")


def test_compute_killed_mid_timeout_charges_elapsed_busy_seconds():
    """Regression: a kill mid-compute must bill the slice it burned."""
    env = Environment()
    cluster = build_cluster(env)
    node = cluster.node("worker-0")
    gen = node.compute(5.0, cores=2)
    env.process(gen)

    def killer():
        yield env.timeout(2.0)
        gen.close()

    env.run(until=env.process(killer()))
    # 2 s of wall time on 2 vCPUs before the kill landed.
    assert node.busy_seconds == pytest.approx(4.0)
    assert node.cpus.in_use == 0  # the vCPUs were still released


def test_total_busy_seconds_aggregates_nodes():
    env = Environment()
    cluster = build_cluster(env)

    def proc():
        yield env.process(cluster.node("worker-0").compute(2.0, cores=2))
        yield env.process(cluster.node("worker-1").compute(1.0, cores=1))

    env.run(until=env.process(proc()))
    assert cluster.total_busy_seconds() == pytest.approx(5.0)
