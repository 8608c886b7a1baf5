"""Elasticity experiment (E10): autoscaling cost vs latency.

The paper's scaling studies (Figs. 13/14) hold the cluster fixed at
1-4 workers; this extension asks the operations question that a static
sweep cannot: over a bursty day, what does elasticity buy?

The traffic is E9's asymmetric shape with an asymmetric horizon — the
heavy tenant floods 4-vCPU jobs for a short burst while the light
tenant trickles small jobs for far longer (the burst-then-tail profile
of real shared clusters).  The *same* merged arrival list replays
twice:

* **static-4** — the paper's 4-worker testbed, membership fixed;
* **elastic** — a 1-worker cluster with an :class:`repro.elastic.
  Autoscaler` (bounds ``min..max``), which provisions workers through
  the burst and drains them back down through the tail.

Both runs must complete every job.  The elastic run must beat static-4
on **node-seconds** (machines are only billed while joined — the tail
runs on one node instead of four) at **equal-or-better p99 queue
latency** (the burst gets more than four workers).  The experiment
asserts both; ``python -m repro elasticity`` prints them.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster import build_cluster
from repro.config import ElasticConfig, JobsConfig, default_config
from repro.errors import ExperimentError
from repro.experiments.exp_fairshare import _streams
from repro.jobs import JobService
from repro.metrics import ExperimentReport
from repro.sim import Environment

__all__ = ["run_elasticity", "replay_static_and_elastic", "ELASTIC_POLICY"]

#: The autoscaler policy under test: aggressive enough to absorb the
#: flood (2 nodes per decision, short cooldown), eager enough on the
#: way down to release the fleet during the trickle tail.
ELASTIC_POLICY = ElasticConfig(
    enabled=True,
    min_nodes=1,
    max_nodes=8,
    interval_s=0.5,
    provision_s=2.0,
    up_queue_per_node=3.0,
    idle_s=1.0,
    cooldown_s=1.0,
    step=2,
)


def _make_cluster(num_workers: int):
    base = default_config()
    config = replace(base, topology=replace(base.topology, num_workers=num_workers))
    return build_cluster(Environment(), config=config)


def replay_static_and_elastic(
    flood_s: float,
    tail_s: float,
    heavy_rate: float,
    light_rate: float,
    policy: ElasticConfig = ELASTIC_POLICY,
):
    """Replay the burst-then-tail arrivals on static-4 and elastic.

    Returns ``{"static-4": summary, "elastic": summary}`` — shared by
    the experiment report and ``tests/elastic/test_autoscaler.py``.
    """
    arrivals = _streams(
        flood_s, heavy_rate, light_rate, light_horizon_s=tail_s
    )
    outcomes = {}
    # The static fleet names its (dormant) policy, so ``--elastic``
    # cannot attach an autoscaler to the baseline.
    static = JobService(
        JobsConfig(enabled=True), cluster=_make_cluster(4), elastic=ElasticConfig()
    )
    outcomes["static-4"] = static.simulate(arrivals=list(arrivals))
    if not static.queue.drained:
        raise ExperimentError("static-4: queue did not drain")
    elastic = JobService(
        JobsConfig(enabled=True),
        cluster=_make_cluster(policy.min_nodes),
        elastic=policy,
    )
    outcomes["elastic"] = elastic.simulate(arrivals=list(arrivals))
    if not elastic.queue.drained:
        raise ExperimentError("elastic: queue did not drain")
    return outcomes


def run_elasticity(
    flood_s: float = 12.0,
    tail_s: float = 60.0,
    heavy_rate: float = 18.0,
    light_rate: float = 2.0,
) -> ExperimentReport:
    """Node-seconds vs p99 queue latency, static-4 vs autoscaled."""
    report = ExperimentReport(
        "elasticity",
        "autoscaling (repro.elastic): cost vs latency when a flood "
        f"({heavy_rate:g}/s for {flood_s:g}s, 4 vCPU jobs) precedes a "
        f"trickle tail ({light_rate:g}/s for {tail_s:g}s)",
        x_label="cluster",
    )
    outcomes = replay_static_and_elastic(flood_s, tail_s, heavy_rate, light_rate)
    for label, summary in outcomes.items():
        report.add("node-seconds", label, summary["node_seconds"], unit="s")
        report.add("p99-queue", label, summary["p99_queue_s"] or 0.0, unit="s")
        report.add(
            "completed", label, summary["counts"]["completed"], unit="jobs"
        )
    static, elastic = outcomes["static-4"], outcomes["elastic"]
    if static["counts"]["completed"] != elastic["counts"]["completed"]:
        raise ExperimentError(
            "elasticity changed the number of completed jobs — membership "
            "must only change where and when work runs"
        )
    if elastic["node_seconds"] >= static["node_seconds"]:
        raise ExperimentError(
            "the autoscaled run cost at least as many node-seconds as the "
            f"static cluster ({elastic['node_seconds']:.1f} vs "
            f"{static['node_seconds']:.1f})"
        )
    static_p99 = static["p99_queue_s"] or 0.0
    elastic_p99 = elastic["p99_queue_s"] or 0.0
    if elastic_p99 > static_p99:
        raise ExperimentError(
            "the autoscaled run queued longer at p99 than the static "
            f"cluster ({elastic_p99:.3f}s vs {static_p99:.3f}s)"
        )
    es = elastic["elastic"]
    report.notes.append(
        f"node-seconds: static {static['node_seconds']:.1f} -> elastic "
        f"{elastic['node_seconds']:.1f}; p99 queue: {static_p99:.3f}s -> "
        f"{elastic_p99:.3f}s; completed jobs identical "
        f"({elastic['counts']['completed']})"
    )
    report.notes.append(
        f"autoscaler: {es['scale_ups']} scale-ups, {es['scale_downs']} "
        f"scale-downs, peak {es['peak_nodes']} workers, final "
        f"{es['final_nodes']} (bounds {ELASTIC_POLICY.min_nodes}.."
        f"{ELASTIC_POLICY.max_nodes}, provision "
        f"{ELASTIC_POLICY.provision_s:g}s)"
    )
    return report
