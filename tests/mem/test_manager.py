"""Unit tests for the memory manager, the spec parser and the install
API, then a paper task walked down a RAM ladder end to end."""

import pytest

from repro.cluster import build_cluster
from repro.config import GIB, KIB, MIB, MemoryConfig
from repro.datasets import generate_fsqa, generate_maccrobat
from repro.errors import InsufficientResources, MemSpecError
from repro.experiments.exp_memory import shrunken_ram_bytes
from repro.layer import format_size, size
from repro.mem import (
    MemoryManager,
    current_memory_config,
    install_memory,
    memory_managed,
    parse_mem_spec,
    uninstall_memory,
)
from repro.mem.spec import MEM_GRAMMAR
from repro.sim import Environment
from repro.tasks.dice import run_dice_script
from repro.tasks.gotta import run_gotta_script

NODE = "worker-0"


def make_cluster(ram=10_000, enabled=True, **kwargs):
    return build_cluster(
        Environment(),
        memory=MemoryConfig(enabled=enabled, node_ram_bytes=ram, **kwargs),
    )


def run(cluster, gen_fn):
    env = cluster.env
    return env.run(until=env.process(gen_fn()))


# -- LRU spilling -------------------------------------------------------------


def test_spills_least_recently_used_first():
    cluster = make_cluster(ram=10_000)
    memory = cluster.memory

    def scenario():
        yield from memory.allocate(NODE, 3_000, key="a")
        yield from memory.allocate(NODE, 3_000, key="b")
        memory.touch(NODE, "a")  # b is now the LRU victim
        yield from memory.allocate(NODE, 4_000, key="c")
        return True

    assert run(cluster, scenario)
    assert memory.spilled_keys(NODE) == ["b"]
    assert memory.resident_keys(NODE) == ["a", "c"]
    assert memory.spill_count == 1
    assert memory.spill_bytes == 3_000


def test_spill_charges_bandwidth_proportional_time():
    cluster = make_cluster(ram=10_000, spill_write_bytes_per_s=1_000.0)
    memory = cluster.memory
    env = cluster.env

    def scenario():
        yield from memory.allocate(NODE, 6_000, key="a")
        before = env.now
        yield from memory.allocate(NODE, 6_000, key="b")  # spills a
        return env.now - before

    elapsed = run(cluster, scenario)
    expected = memory.config.spill_write_time(6_000)  # base + 6s bandwidth
    assert elapsed == pytest.approx(expected)
    assert memory.spill_seconds == pytest.approx(expected)


def test_restore_pays_read_time_and_dedups_concurrent_getters():
    cluster = make_cluster(ram=10_000)
    memory = cluster.memory
    env = cluster.env

    def scenario():
        yield from memory.allocate(NODE, 6_000, key="cold")
        yield from memory.allocate(NODE, 6_000, key="hot")  # spills cold
        assert memory.is_spilled(NODE, "cold")
        before = env.now
        first = env.process(memory.ensure_resident(NODE, "cold"))
        second = env.process(memory.ensure_resident(NODE, "cold"))
        yield first
        yield second
        return env.now - before

    elapsed = run(cluster, scenario)
    assert memory.restore_count == 1  # the second getter joined the first
    # One read's cost (plus the eviction of "hot" it forced).
    read = memory.config.spill_read_time(6_000)
    write = memory.config.spill_write_time(6_000)
    assert elapsed == pytest.approx(read + write)
    assert memory.resident_keys(NODE) == ["cold"]
    assert memory.spilled_keys(NODE) == ["hot"]


def test_ensure_resident_is_free_for_resident_and_unknown_keys():
    cluster = make_cluster(ram=10_000)
    memory = cluster.memory
    env = cluster.env

    def scenario():
        yield from memory.allocate(NODE, 1_000, key="a")
        before = env.now
        yield from memory.ensure_resident(NODE, "a")
        yield from memory.ensure_resident(NODE, "never-seen")
        return env.now - before

    assert run(cluster, scenario) == 0.0


# -- admission backpressure ---------------------------------------------------


def test_admission_blocks_until_anonymous_memory_frees():
    cluster = make_cluster(ram=10_000)
    memory = cluster.memory
    env = cluster.env
    order = []

    def holder():
        # Anonymous (non-spillable) reservation holding most of the node.
        yield from memory.allocate(NODE, 9_000)
        yield env.timeout(5.0)
        order.append(("freed", env.now))
        memory.free_anonymous(NODE, 9_000)

    def late_comer():
        yield env.timeout(1.0)
        yield from memory.allocate(NODE, 4_000, key="late")
        order.append(("admitted", env.now))

    def scenario():
        a = env.process(holder())
        b = env.process(late_comer())
        yield a
        yield b
        return True

    assert run(cluster, scenario)
    assert order == [("freed", 5.0), ("admitted", 5.0)]
    assert memory.blocked_count == 1
    assert memory.blocked_seconds == pytest.approx(4.0)


def test_blocked_admissions_wake_fifo():
    cluster = make_cluster(ram=10_000)
    memory = cluster.memory
    env = cluster.env
    admitted = []

    def holder():
        yield from memory.allocate(NODE, 9_000)
        yield env.timeout(2.0)
        memory.free_anonymous(NODE, 9_000)

    def contender(name, delay):
        yield env.timeout(delay)
        yield from memory.allocate(NODE, 3_000, key=name)
        admitted.append(name)

    def scenario():
        procs = [env.process(holder())]
        procs.append(env.process(contender("first", 0.1)))
        procs.append(env.process(contender("second", 0.2)))
        procs.append(env.process(contender("third", 0.3)))
        for proc in procs:
            yield proc
        return True

    assert run(cluster, scenario)
    assert admitted == ["first", "second", "third"]  # arrival order, not size


def test_oversized_object_uses_full_ceiling():
    # 9.6k > the admission watermark (95% of 10k) but <= the ceiling:
    # the escape hatch admits it rather than wedging forever.
    cluster = make_cluster(ram=10_000)
    memory = cluster.memory

    def scenario():
        yield from memory.allocate(NODE, 9_600, key="huge")
        return True

    assert run(cluster, scenario)
    assert cluster.node(NODE).ram_used == 9_600


def test_allocation_beyond_ceiling_raises():
    cluster = make_cluster(ram=10_000)
    memory = cluster.memory

    def scenario():
        yield from memory.allocate(NODE, 10_001, key="impossible")

    with pytest.raises(InsufficientResources, match="no amount of spilling"):
        run(cluster, scenario)


# -- release semantics --------------------------------------------------------


def test_release_frees_resident_and_forgets_spilled():
    cluster = make_cluster(ram=10_000)
    memory = cluster.memory
    node = cluster.node(NODE)

    def scenario():
        yield from memory.allocate(NODE, 6_000, key="a")
        yield from memory.allocate(NODE, 6_000, key="b")  # spills a
        memory.release(NODE, "b")
        assert node.ram_used == 0
        memory.release(NODE, "a")  # spilled: forgotten, no RAM change
        memory.release(NODE, "ghost")  # unknown: silently ignored
        return True

    assert run(cluster, scenario)
    assert memory.resident_keys(NODE) == []
    assert memory.spilled_keys(NODE) == []


# -- oom clamp ----------------------------------------------------------------


def test_clamp_spills_down_to_the_new_ceiling():
    cluster = make_cluster(ram=10_000)
    memory = cluster.memory
    node = cluster.node(NODE)

    def scenario():
        yield from memory.allocate(NODE, 4_000, key="a")
        yield from memory.allocate(NODE, 4_000, key="b")
        yield from memory.clamp_matching("worker-*", 2.0)
        return True

    assert run(cluster, scenario)
    assert node.ram_limit == 5_000
    assert node.ram_used <= 5_000
    assert memory.spilled_keys(NODE) == ["a"]  # LRU went first


def test_clamp_rejects_factor_below_one():
    cluster = make_cluster(ram=10_000)
    with pytest.raises(ValueError, match="factor must be >= 1"):
        run(cluster, lambda: cluster.memory.clamp(NODE, 0.5))


def test_dormant_clamp_only_drops_the_ceiling():
    cluster = make_cluster(ram=10_000, enabled=False)
    node = cluster.node(NODE)
    node.allocate_ram(8_000)
    run(cluster, lambda: cluster.memory.clamp(NODE, 2.0))
    assert node.ram_limit == 5_000
    assert node.ram_used == 8_000  # nothing reclaimed while dormant
    with pytest.raises(InsufficientResources):
        node.allocate_ram(1)


# -- spec parsing -------------------------------------------------------------


def test_parse_size_suffixes_and_errors():
    assert size("2GiB") == 2 * GIB
    assert size("512MiB") == 512 * MIB
    assert size("1.5kb") == int(1.5 * KIB)
    assert size("4096") == 4096
    for bad in ("", "lots", "-1MiB", "0"):
        with pytest.raises(MemSpecError):
            parse_mem_spec(f"on,ram={bad}")


def test_format_size_round_trips_exact_binary_sizes():
    assert format_size(2 * GIB) == "2GiB"
    assert format_size(512 * MIB) == "512MiB"
    # Not a whole number of KiB: the plain byte count, never rounded.
    assert format_size(999) == "999"
    assert format_size(1234567) == "1234567"
    assert format_size(3 * MIB // 2) == "1536KiB"
    for nbytes in (999, 1234567, 3 * MIB // 2, 2 * GIB):
        assert size(format_size(nbytes)) == nbytes


def test_parse_mem_spec_full_grammar():
    config = parse_mem_spec("on,ram=2GiB,spill=0.7,admit=0.9,write_bw=50MiB,read_bw=200MiB,base=0.01")
    assert config.enabled is True
    assert config.node_ram_bytes == 2 * GIB
    assert config.spill_watermark == 0.7
    assert config.admission_watermark == 0.9
    assert config.spill_write_bytes_per_s == 50 * MIB
    assert config.spill_read_bytes_per_s == 200 * MIB
    assert config.spill_base_s == 0.01
    assert parse_mem_spec("off").enabled is False


@pytest.mark.parametrize(
    "spec",
    [
        "",
        "maybe",
        "ram=",
        "ram=lots",
        "spill=zero",
        "frobnicate=1",
        "on,,ram=2GiB",
        "spill=0.9,admit=0.5",  # watermark ordering enforced by the config
    ],
)
def test_parse_mem_spec_rejects_malformed(spec):
    with pytest.raises(MemSpecError):
        parse_mem_spec(spec)


def test_the_memory_description_names_the_policy_state():
    assert MEM_GRAMMAR.describe(MemoryConfig()).startswith("memory: off (dormant)\n")
    assert MEM_GRAMMAR.describe(MemoryConfig(enabled=True)).startswith("memory: on\n")


# -- install API --------------------------------------------------------------


def test_install_uninstall_and_context():
    assert current_memory_config() is None
    config = install_memory("on,ram=1GiB")
    try:
        assert current_memory_config() is config
        assert config.enabled and config.node_ram_bytes == GIB
    finally:
        uninstall_memory()
    assert current_memory_config() is None
    with memory_managed(MemoryConfig(enabled=True)) as active:
        assert current_memory_config() is active
        cluster = build_cluster(Environment())
        assert cluster.memory.active
    assert current_memory_config() is None


def test_explicit_memory_argument_beats_installed_policy():
    with memory_managed("on"):
        cluster = build_cluster(Environment(), memory=MemoryConfig())
    assert not cluster.memory.active


def test_manager_requires_known_nodes():
    from repro.errors import UnknownNode

    cluster = build_cluster(Environment())
    manager = MemoryManager(cluster, MemoryConfig(enabled=True))
    with pytest.raises(UnknownNode, match="no-such-node"):
        next(manager.allocate("no-such-node", 1, key="x"))


# -- end to end: a paper task on a RAM ladder ---------------------------------


def probe(run_fn):
    """Clean run -> the cluster, carrying each node's RAM high-water marks."""
    cluster = build_cluster(Environment())
    run_fn(cluster)
    return cluster


def pressure_outcome(run_fn, ram, enabled):
    """One ladder cell: (status, elapsed, spills, peak RSS)."""
    cluster = make_cluster(ram=ram, enabled=enabled)
    try:
        run = run_fn(cluster)
    except InsufficientResources:
        return "died", None, None, None
    peak = max(node.ram_peak for node in cluster._nodes.values())
    return "ok", run.elapsed_s, cluster.memory.spill_count, peak


def test_pressured_run_is_deterministic():
    """Same memory config, same workload -> bit-identical timeline."""
    paragraphs = generate_fsqa(num_paragraphs=1, seed=17)

    def run_fn(cluster):
        return run_gotta_script(cluster, paragraphs, num_cpus=4)

    ram = shrunken_ram_bytes(probe(run_fn))
    first = pressure_outcome(run_fn, ram, enabled=True)
    assert pressure_outcome(run_fn, ram, enabled=True) == first
    assert first[0] == "ok" and first[2] > 0


def test_dice_ram_ladder_dormant_dies_spill_completes():
    """From ample RAM down to the largest single allocation (the hard
    floor): dormant dies below the peak, spilling completes everywhere."""
    reports = generate_maccrobat(num_docs=40, seed=7)

    def run_fn(cluster):
        return run_dice_script(cluster, reports, num_cpus=4)

    clean = probe(run_fn)
    ladder = {
        "ample": None,
        "peak": max(node.ram_peak for node in clean._nodes.values()),
        "midpoint": shrunken_ram_bytes(clean),
        "floor": max(node.largest_alloc for node in clean._nodes.values()),
    }
    assert pressure_outcome(run_fn, None, enabled=False)[0] == "ok"
    assert pressure_outcome(run_fn, ladder["midpoint"], enabled=False)[0] == "died"
    for rung, ram in ladder.items():
        assert pressure_outcome(run_fn, ram, enabled=True)[0] == "ok", rung
