"""The placement-policy catalogue: unit tests on fakes, then the
policies end to end on the two model-heavy script tasks."""

import pytest

from repro.cluster import build_cluster
from repro.datasets import generate_fsqa
from repro.errors import UnknownPolicy
from repro.experiments.harness import cached_kge_dataset
from repro.obs import Tracer, tracing
from repro.sched import (
    DEFAULT_POLICY,
    POLICIES,
    PlacementRequest,
    Scheduler,
    make_policy,
    policy_catalogue,
    scheduling,
    valid_policy,
)
from repro.sim import Environment
from repro.tasks import fresh_cluster
from repro.tasks.gotta import run_gotta_script
from repro.tasks.kge import run_kge_script


class FakeFaults:
    """Deterministic injector stand-in: named nodes are down."""

    def __init__(self, down=()):
        self.active = True
        self.down = set(down)

    def node_down(self, name, now):
        return name in self.down


class FakeStore:
    def __init__(self, replicas=None):
        self.replicas = replicas or {}

    def replicas_of(self, ref):
        return set(self.replicas.get(ref.ref_id, ()))


class FakeRef:
    def __init__(self, ref_id, nbytes):
        self.ref_id = ref_id
        self.nbytes = nbytes


def make_scheduler(policy, down=(), replicas=None):
    cluster = build_cluster(Environment())
    sched = Scheduler(cluster, policy=policy)
    if down:
        cluster.env.faults = FakeFaults(down)
    sched.store = FakeStore(replicas)
    return sched


def names(nodes):
    return [node.name for node in nodes]


# -- registry ----------------------------------------------------------------


def test_registry_and_default():
    assert DEFAULT_POLICY == "round_robin"
    assert set(POLICIES) == {
        "round_robin",
        "least_loaded",
        "locality",
        "packed",
        "spread",
        "drf",
    }
    for name in POLICIES:
        assert valid_policy(name)
        assert make_policy(name).name == name
    assert not valid_policy("fifo")


def test_make_policy_unknown_raises():
    with pytest.raises(UnknownPolicy, match="fifo"):
        make_policy("fifo")


def test_catalogue_lists_every_policy():
    text = policy_catalogue()
    for name, cls in POLICIES.items():
        assert name in text
        assert cls.description in text
    assert "--scheduler" in text


def test_request_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown placement kind"):
        PlacementRequest(kind="gang")


def test_largest_ref_picks_biggest_fulfilled():
    big, small = FakeRef("b", 100), FakeRef("s", 10)
    pending = FakeRef("p", 0)
    assert PlacementRequest(kind="task", refs=(small, big)).largest_ref() is big
    assert PlacementRequest(kind="task", refs=(pending,)).largest_ref() is None
    assert PlacementRequest(kind="task").largest_ref() is None


# -- round_robin (the seed behaviour) ----------------------------------------


def test_round_robin_cycles_all_workers():
    sched = make_scheduler("round_robin")
    chosen = [
        sched.place(PlacementRequest(kind="task")).name for _ in range(6)
    ]
    assert chosen == [
        "worker-0", "worker-1", "worker-2", "worker-3", "worker-0", "worker-1",
    ]


def test_round_robin_counter_shared_across_kinds():
    # The seed used one counter for tasks and actors alike.
    sched = make_scheduler("round_robin")
    first = sched.place(PlacementRequest(kind="task")).name
    second = sched.place(PlacementRequest(kind="actor")).name
    third = sched.place(PlacementRequest(kind="operator")).name
    assert [first, second, third] == ["worker-0", "worker-1", "worker-2"]


def test_round_robin_retry_stays_put_and_skips_counter():
    sched = make_scheduler("round_robin")
    sched.place(PlacementRequest(kind="task"))  # worker-0
    retry = sched.place(PlacementRequest(kind="retry", prev_node="worker-3"))
    assert retry.name == "worker-3"
    # The retry must not advance the shared counter.
    assert sched.place(PlacementRequest(kind="task")).name == "worker-1"


def test_round_robin_reconstruction_first_healthy():
    sched = make_scheduler("round_robin", down={"worker-0", "worker-1"})
    node = sched.place(PlacementRequest(kind="reconstruction"))
    assert node.name == "worker-2"


def test_round_robin_fresh_placement_ignores_faults():
    # Seed semantics: submission cycles over all workers, down or not.
    sched = make_scheduler("round_robin", down={"worker-0"})
    assert sched.place(PlacementRequest(kind="task")).name == "worker-0"


# -- least_loaded ------------------------------------------------------------


def test_least_loaded_prefers_idle_node():
    sched = make_scheduler("least_loaded")
    first = sched.place(PlacementRequest(kind="task"))
    second = sched.place(PlacementRequest(kind="task"))
    assert first.name == "worker-0"
    assert second.name == "worker-1"  # worker-0 now has outstanding=1
    sched.release(first.name)
    sched.release(second.name)
    # All idle again: totals break the tie, so worker-2 is next.
    assert sched.place(PlacementRequest(kind="task")).name == "worker-2"


def test_least_loaded_skips_down_nodes():
    sched = make_scheduler("least_loaded", down={"worker-0"})
    assert sched.place(PlacementRequest(kind="task")).name == "worker-1"


# -- locality ----------------------------------------------------------------


def test_locality_follows_existing_replica():
    ref = FakeRef("model", 1000)
    sched = make_scheduler("locality", replicas={"model": ["worker-2"]})
    node = sched.place(PlacementRequest(kind="task", refs=(ref,)))
    assert node.name == "worker-2"


def test_locality_burst_converges_on_planned_replica():
    # No replica on any worker yet (driver put it on the controller):
    # the first placement plans one, the rest of the burst follow it.
    ref = FakeRef("model", 1000)
    sched = make_scheduler("locality", replicas={"model": ["controller"]})
    chosen = {
        sched.place(PlacementRequest(kind="task", refs=(ref,))).name
        for _ in range(4)
    }
    assert chosen == {"worker-0"}


def test_locality_spills_when_local_node_is_full():
    ref = FakeRef("model", 1000)
    sched = make_scheduler("locality", replicas={"model": ["worker-0"]})
    num_cpus = sched.workers[0].num_cpus
    for _ in range(num_cpus):
        assert sched.place(
            PlacementRequest(kind="task", refs=(ref,))
        ).name == "worker-0"
    spilled = sched.place(PlacementRequest(kind="task", refs=(ref,)))
    assert spilled.name != "worker-0"


def test_locality_without_hints_falls_back_to_least_loaded():
    sched = make_scheduler("locality")
    assert sched.place(PlacementRequest(kind="task")).name == "worker-0"
    assert sched.place(PlacementRequest(kind="task")).name == "worker-1"


def test_locality_aligns_operator_peers():
    # Instance k of every operator lands on worker k % N.
    sched = make_scheduler("locality")
    layout = [
        sched.place(
            PlacementRequest(
                kind="operator", operator_id=op, worker_index=k, num_workers=2
            )
        ).name
        for op in ("scan", "join")
        for k in range(2)
    ]
    assert layout == ["worker-0", "worker-1", "worker-0", "worker-1"]


def test_locality_operator_avoids_down_node():
    sched = make_scheduler("locality", down={"worker-0"})
    node = sched.place(
        PlacementRequest(
            kind="operator", operator_id="scan", worker_index=0, num_workers=1
        )
    )
    assert node.name != "worker-0"


# -- packed / spread ---------------------------------------------------------


def test_packed_fills_first_node_then_spills():
    sched = make_scheduler("packed")
    num_cpus = sched.workers[0].num_cpus
    chosen = [
        sched.place(PlacementRequest(kind="task")).name
        for _ in range(num_cpus + 2)
    ]
    assert chosen[:num_cpus] == ["worker-0"] * num_cpus
    assert chosen[num_cpus:] == ["worker-1", "worker-1"]


def test_spread_balances_cumulative_totals():
    sched = make_scheduler("spread")
    chosen = [sched.place(PlacementRequest(kind="task")).name for _ in range(8)]
    assert chosen == [f"worker-{i % 4}" for i in range(8)]


def test_spread_skips_down_nodes():
    sched = make_scheduler("spread", down={"worker-1"})
    chosen = [sched.place(PlacementRequest(kind="task")).name for _ in range(3)]
    assert chosen == ["worker-0", "worker-2", "worker-3"]


# -- drf ---------------------------------------------------------------------


def test_drf_without_resource_pressure_is_position_stable():
    # Idle cluster, zero RAM demand: every node's dominant share ties,
    # so outstanding then worker position decide — worker-0 first.
    sched = make_scheduler("drf")
    first = sched.place(PlacementRequest(kind="job", cpus=1))
    second = sched.place(PlacementRequest(kind="job", cpus=1))
    assert first.name == "worker-0"
    # worker-0 now has 1 outstanding, so the tie moves to worker-1.
    assert second.name == "worker-1"


def test_drf_avoids_the_ram_loaded_node():
    sched = make_scheduler("drf")
    half = sched.workers[0].ram_limit // 2
    sched.workers[0].allocate_ram(half)  # worker-0: RAM share 0.5
    node = sched.place(
        PlacementRequest(kind="job", cpus=1, ram_bytes=1)
    )
    assert node.name == "worker-1"


def test_drf_dominant_share_weighs_cpu_against_ram():
    # worker-0 is RAM-heavy (0.5 RAM share); worker-1..3 get CPU load
    # heavier than that, so the RAM-loaded node becomes the minimum
    # again: DRF compares the *larger* of the two shares per node.
    sched = make_scheduler("drf")
    sched.workers[0].allocate_ram(sched.workers[0].ram_limit // 2)
    for worker in sched.workers[1:]:
        worker.env.process(worker.compute(1.0, cores=6))
    sched.cluster.env.run(until=0.5)  # mid-compute: 6/8 vCPUs in use
    node = sched.place(PlacementRequest(kind="job", cpus=1, ram_bytes=1))
    assert node.name == "worker-0"


def test_drf_skips_down_nodes():
    sched = make_scheduler("drf", down={"worker-0"})
    assert sched.place(PlacementRequest(kind="job")).name == "worker-1"


# -- end to end: the model-heavy script tasks, four-way parallel -------------


def _model_task(task):
    if task == "kge":  # 375 MB model
        dataset = cached_kge_dataset(1500, universe_size=4000)
        return lambda tracer: run_kge_script(
            fresh_cluster(tracer=tracer), dataset, num_cpus=4
        )
    paragraphs = generate_fsqa(num_paragraphs=4, seed=17)  # 1.59 GB model
    return lambda tracer: run_gotta_script(
        fresh_cluster(tracer=tracer), paragraphs, num_cpus=4
    )


def _transfer_telemetry(policy, run_fn):
    """(transfer seconds, transfer count, output rows, elapsed)."""
    tracer = Tracer()
    with scheduling(policy), tracing(tracer):
        run = run_fn(tracer)
    return (
        tracer.metrics.total("objectstore.transfer.seconds"),
        tracer.metrics.total("objectstore.transfer.count"),
        sorted(tuple(row.values) for row in run.output.rows),
        run.elapsed_s,
    )


@pytest.mark.parametrize("task", ["kge", "gotta"])
def test_locality_reduces_model_transfer_time(task):
    """locality moves tasks to the model; round_robin moves the model.

    Under ``round_robin`` the 4-way task fan-out pulls a model replica
    to every worker (4 inter-node transfers); under ``locality`` the
    burst converges on one node and the object store's in-flight dedup
    collapses the fetches into a single transfer.
    """
    run_fn = _model_task(task)
    rr_s, rr_n, rr_rows, _ = _transfer_telemetry("round_robin", run_fn)
    loc_s, loc_n, loc_rows, _ = _transfer_telemetry("locality", run_fn)
    assert loc_rows == rr_rows, "locality changed the output"
    assert rr_n > 0, "round_robin performed no transfers"
    assert loc_n < rr_n
    assert loc_s < rr_s


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_policy_timeline_is_deterministic(policy):
    """Same policy, same workload -> bit-identical timeline."""
    for task in ("kge", "gotta"):
        run_fn = _model_task(task)
        first = _transfer_telemetry(policy, run_fn)
        assert _transfer_telemetry(policy, run_fn) == first, task
