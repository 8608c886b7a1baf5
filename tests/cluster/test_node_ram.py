"""Node RAM accounting: validation, peak tracking, ceiling, gauges."""

import pytest

from repro.cluster import build_cluster
from repro.config import MachineConfig, MemoryConfig
from repro.errors import InsufficientResources
from repro.obs import Tracer
from repro.sim import Environment


def make_node(ram_bytes=1000):
    from repro.cluster.node import Node

    env = Environment()
    return Node(env, "worker-0", MachineConfig(num_cpus=8, ram_bytes=ram_bytes))


# -- validation ---------------------------------------------------------------


def test_allocate_rejects_negative_and_overflow():
    node = make_node(ram_bytes=1000)
    with pytest.raises(ValueError, match="negative allocation"):
        node.allocate_ram(-1)
    with pytest.raises(InsufficientResources, match="exceeds free RAM"):
        node.allocate_ram(1001)
    node.allocate_ram(600)
    with pytest.raises(InsufficientResources):
        node.allocate_ram(500)  # only 400 free
    assert node.ram_used == 600  # failed allocations change nothing


def test_free_rejects_negative_and_underflow():
    node = make_node(ram_bytes=1000)
    node.allocate_ram(100)
    with pytest.raises(ValueError, match="negative free"):
        node.free_ram(-1)
    with pytest.raises(ValueError, match="only 100 are allocated"):
        node.free_ram(200)
    node.free_ram(100)
    assert node.ram_used == 0


# -- peak + largest-allocation tracking ---------------------------------------


def test_peak_and_largest_alloc_track_high_water():
    node = make_node(ram_bytes=1000)
    node.allocate_ram(300)
    node.allocate_ram(400)
    node.free_ram(600)
    node.allocate_ram(100)
    assert node.ram_used == 200
    assert node.ram_peak == 700  # high water, not current usage
    assert node.largest_alloc == 400  # biggest single admission


def test_ram_limit_is_the_mutable_ceiling():
    node = make_node(ram_bytes=1000)
    assert node.ram_bytes == 1000
    node.ram_limit = 500
    assert node.ram_bytes == 500
    assert node.ram_free == 500
    with pytest.raises(InsufficientResources):
        node.allocate_ram(501)
    node.allocate_ram(500)
    assert node.ram_free == 0


# -- gauges (repro.obs) -------------------------------------------------------


def test_ram_gauges_report_rss_and_high_water():
    tracer = Tracer()
    cluster = build_cluster(Environment(), tracer=tracer)
    node = cluster.node("worker-0")
    node.allocate_ram(5000)
    node.allocate_ram(2000)
    node.free_ram(4000)
    rss = tracer.metrics.gauge("mem.node_rss", node="worker-0")
    high = tracer.metrics.gauge("mem.high_water", node="worker-0")
    assert rss.value == 3000
    assert rss.max_value == 7000
    assert high.value == 7000
    node.free_ram(3000)
    assert rss.value == 0
    assert high.value == 7000  # high water never comes back down


def test_gauges_stay_silent_without_a_tracer():
    cluster = build_cluster(Environment())
    node = cluster.node("worker-0")
    node.allocate_ram(5000)
    node.free_ram(5000)  # no tracer enabled: pure arithmetic, no errors
    assert node.ram_peak == 5000


# -- peak under spill/backpressure (repro.mem) --------------------------------


def test_peak_respects_ceiling_under_spilling():
    cluster = build_cluster(
        Environment(), memory=MemoryConfig(enabled=True, node_ram_bytes=10_000)
    )
    env = cluster.env
    memory = cluster.memory
    node = cluster.node("worker-0")

    def scenario():
        for index in range(5):
            yield from memory.allocate("worker-0", 4_000, key=f"obj-{index}")
        return True

    assert env.run(until=env.process(scenario()))
    # 20k bytes admitted through a 10k node: spilling kept every
    # instantaneous reading - and therefore the peak - under the limit.
    assert node.ram_peak <= node.ram_limit == 10_000
    assert memory.spill_count >= 3
    assert node.ram_used == sum(
        memory._states["worker-0"].resident.values()
    )


def test_node_ram_bytes_override_clamps_every_node():
    cluster = build_cluster(Environment(), memory=MemoryConfig(node_ram_bytes=123))
    for name in cluster.node_names():
        assert cluster.node(name).ram_limit == 123
    # Dormant policy: the clamp alone makes allocations fail hard.
    with pytest.raises(InsufficientResources):
        cluster.node("worker-0").allocate_ram(124)
