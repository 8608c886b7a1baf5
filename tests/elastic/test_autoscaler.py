"""The autoscaler against the job service: scale up, drain down."""

from dataclasses import replace

import pytest

from repro.cluster import build_cluster
from repro.config import ElasticConfig, JobsConfig, default_config
from repro.elastic import Autoscaler, elastic_enabled
from repro.experiments import EXPERIMENTS
from repro.experiments.exp_elastic import replay_static_and_elastic
from repro.jobs import Arrival, JobService, JobSpec
from repro.obs import tracing
from repro.sim import Environment

#: The traffic `repro elasticity --quick` replays, from the experiment table.
(QUICK_ELASTICITY,) = [exp.quick for exp in EXPERIMENTS if exp.id == "elasticity"]

#: A fast-reacting policy so tests stay short in virtual time.
POLICY = ElasticConfig(
    enabled=True,
    min_nodes=1,
    max_nodes=6,
    interval_s=0.25,
    provision_s=1.0,
    up_queue_per_node=2.0,
    idle_s=0.5,
    cooldown_s=0.5,
    step=2,
)


def small_cluster(num_workers=1):
    base = default_config()
    config = replace(
        base, topology=replace(base.topology, num_workers=num_workers)
    )
    return build_cluster(Environment(), config=config)


def burst(n=20, duration_s=0.5, cpus=4, spacing_s=0.05):
    """An arrival list flooding the queue from t=0."""
    return [
        Arrival(
            i * spacing_s,
            JobSpec(cpus=cpus, duration_s=duration_s, tenant=f"t{i % 2}"),
        )
        for i in range(n)
    ]


def burst_then_tail(n=20, tail=10, tail_start_s=6.0, tail_spacing_s=1.0):
    """A flood from t=0 plus a sparse tail that keeps the clock moving.

    The tail is what lets scale-downs happen inside ``simulate`` — the
    run ends when the queue drains, so without late arrivals there is
    no idle period for the autoscaler to observe.
    """
    return burst(n=n) + [
        Arrival(
            tail_start_s + i * tail_spacing_s,
            JobSpec(cpus=1, duration_s=0.05, tenant="tail"),
        )
        for i in range(tail)
    ]


def test_flood_scales_up_then_back_down():
    service = JobService(
        JobsConfig(enabled=True), cluster=small_cluster(1), elastic=POLICY
    )
    summary = service.simulate(arrivals=burst_then_tail())
    assert service.queue.drained
    assert summary["counts"]["completed"] == 30
    es = summary["elastic"]
    assert es["scale_ups"] > 0
    assert es["peak_nodes"] > 1
    # The sparse tail drains the flood-era fleet back down.
    assert es["scale_downs"] > 0
    assert es["final_nodes"] < es["peak_nodes"]
    assert summary["node_seconds"] > 0


def test_fleet_never_exceeds_max_nodes():
    policy = replace(POLICY, max_nodes=3)
    service = JobService(
        JobsConfig(enabled=True), cluster=small_cluster(1), elastic=policy
    )
    service.simulate(arrivals=burst(n=40))
    assert service.cluster.peak_workers <= 3


def test_static_service_has_no_autoscaler():
    service = JobService(JobsConfig(enabled=True))
    assert service.autoscaler is None
    summary = service.simulate(arrivals=burst(n=4))
    assert "elastic" not in summary
    assert summary["node_seconds"] > 0  # billed even when static


def test_installed_config_attaches_the_autoscaler():
    with elastic_enabled("on,min=1,max=4,provision=0.5,interval=0.25"):
        service = JobService(JobsConfig(enabled=True), cluster=small_cluster(1))
    assert service.autoscaler is not None
    assert service.autoscaler.config.max_nodes == 4


def test_request_capacity_rescues_a_too_big_job():
    """A job too big for the current fleet waits for a provisioned node."""
    policy = replace(POLICY, shape="fast")  # 16 vCPU
    service = JobService(
        JobsConfig(enabled=True), cluster=small_cluster(1), elastic=policy
    )
    # 12 vCPUs exceed the 8-vCPU seed worker but fit the 'fast' shape.
    summary = service.simulate(arrivals=[Arrival(0.0, JobSpec(cpus=12, duration_s=0.5))])
    assert summary["counts"]["completed"] == 1
    assert summary["counts"]["failed"] == 0
    assert service.autoscaler.scale_ups >= 1


def test_oversized_job_still_fails_fast():
    """Bigger than even the autoscaler's shape: never admissible."""
    service = JobService(
        JobsConfig(enabled=True), cluster=small_cluster(1), elastic=POLICY
    )
    summary = service.simulate(arrivals=[Arrival(0.0, JobSpec(cpus=64, duration_s=0.5))])
    assert summary["counts"]["failed"] == 1


def test_decisions_emit_metrics_when_traced():
    with tracing() as tracer:
        service = JobService(
            JobsConfig(enabled=True), cluster=small_cluster(1), elastic=POLICY
        )
        service.simulate(arrivals=burst_then_tail())
    metrics = tracer.metrics
    assert metrics.total("elastic.scale_up") > 0
    assert metrics.total("elastic.scale_down") > 0
    # The gauge tracks the live worker count through every change.
    gauge = metrics.gauge("cluster.nodes")
    assert gauge.value == len(service.cluster.workers)
    assert gauge.max_value == service.cluster.peak_workers


def test_autoscaler_summary_shape():
    cluster = small_cluster(2)
    service = JobService(JobsConfig(enabled=True), cluster=cluster, elastic=POLICY)
    scaler = service.autoscaler
    assert isinstance(scaler, Autoscaler)
    summary = scaler.summary()
    assert summary == {
        "scale_ups": 0,
        "scale_downs": 0,
        "provisioning": 0,
        "final_nodes": 2,
        "peak_nodes": 2,
        "shape": "default",
    }


def test_elastic_run_is_deterministic():
    def run():
        service = JobService(
            JobsConfig(enabled=True), cluster=small_cluster(1), elastic=POLICY
        )
        return service.simulate(arrivals=burst())

    assert run() == run()


def test_equal_completions_with_and_without_elasticity():
    jobs = burst(n=12)
    static = JobService(JobsConfig(enabled=True)).simulate(arrivals=list(jobs))
    elastic = JobService(
        JobsConfig(enabled=True), cluster=small_cluster(1), elastic=POLICY
    ).simulate(arrivals=list(jobs))
    assert (
        static["counts"]["completed"]
        == elastic["counts"]["completed"]
        == 12
    )


@pytest.mark.parametrize(
    "traffic",
    [
        # E10: a 12 s flood of 4-vCPU jobs at 18/s, then a 1-vCPU
        # trickle to 60 s — the flood needs more than four workers, the
        # tail wastes most of a static fleet.
        dict(flood_s=12.0, tail_s=60.0, heavy_rate=18.0, light_rate=2.0),
        # The same shape at `repro elasticity --quick` scale (~130 jobs).
        QUICK_ELASTICITY,
    ],
    ids=["e10", "quick"],
)
def test_burst_then_tail_elastic_is_cheaper_than_static_4_at_no_worse_p99(traffic):
    outcomes = replay_static_and_elastic(**traffic)
    static, elastic = outcomes["static-4"], outcomes["elastic"]
    for summary in (static, elastic):
        assert summary["counts"]["completed"] == summary["jobs"]
    assert elastic["jobs"] == static["jobs"]
    assert elastic["node_seconds"] < static["node_seconds"]
    assert elastic["p99_queue_s"] <= static["p99_queue_s"]
    scaler = elastic["elastic"]
    assert scaler["scale_ups"] > 0 and scaler["scale_downs"] > 0
    assert scaler["peak_nodes"] > 4, "the flood never out-scaled static-4"


def test_spec_string_accepted_directly():
    service = JobService(
        JobsConfig(enabled=True),
        cluster=small_cluster(1),
        elastic="on,min=1,max=4,provision=0.5,interval=0.25,idle=0.5,cooldown=0.5",
    )
    assert service.autoscaler is not None
    summary = service.simulate(arrivals=burst(n=6))
    assert summary["counts"]["completed"] == 6


def test_bad_shape_fails_at_construction():
    from repro.errors import ElasticSpecError

    with pytest.raises(ElasticSpecError):
        JobService(
            JobsConfig(enabled=True),
            cluster=small_cluster(1),
            elastic="on,shape=warp9",
        )
