"""Scheduler accounting, policy resolution and observability."""

import pytest

from repro.cluster import build_cluster
from repro.errors import UnknownPolicy
from repro.obs import Tracer, tracing
from repro.sched import (
    PlacementRequest,
    RoundRobinPolicy,
    Scheduler,
    current_policy_name,
    install_policy,
    scheduling,
    uninstall_policy,
)
from repro.sim import Environment


def make_scheduler(policy=None, tracer=None):
    cluster = build_cluster(Environment(), tracer=tracer)
    return Scheduler(cluster, policy=policy)


# -- accounting --------------------------------------------------------------


def test_place_and_release_track_outstanding_and_total():
    sched = make_scheduler()
    node = sched.place(PlacementRequest(kind="task"))
    account = sched.accounts[node.name]
    assert (account.outstanding, account.total) == (1, 1)
    sched.release(node.name)
    assert (account.outstanding, account.total) == (0, 1)
    assert sched.placements == 1


def test_release_never_goes_negative():
    sched = make_scheduler()
    sched.release("worker-0")
    assert sched.accounts["worker-0"].outstanding == 0
    sched.release("not-a-node")  # unknown nodes are ignored


def test_replacements_counted_separately():
    sched = make_scheduler()
    sched.place(PlacementRequest(kind="task"))
    sched.place(PlacementRequest(kind="retry", prev_node="worker-0"))
    sched.place(PlacementRequest(kind="reconstruction"))
    assert sched.placements == 3
    assert sched.replacements == 2


def test_counter_advances_only_for_counted_kinds():
    sched = make_scheduler()
    request = PlacementRequest(kind="task")
    sched.place(request)
    assert request.index == 0
    retry = PlacementRequest(kind="retry", prev_node="worker-0")
    sched.place(retry)
    assert retry.index == 0  # untouched: replacements do not advance it
    second = PlacementRequest(kind="operator")
    sched.place(second)
    assert second.index == 1


# -- policy resolution -------------------------------------------------------


def test_explicit_policy_instance_wins():
    policy = RoundRobinPolicy()
    sched = make_scheduler(policy=policy)
    assert sched.policy is policy


def test_policy_resolution_order():
    assert make_scheduler().policy.name == "round_robin"
    assert make_scheduler(policy="packed").policy.name == "packed"
    with scheduling("least_loaded"):
        assert make_scheduler().policy.name == "least_loaded"
        # Explicit name beats the global install.
        assert make_scheduler(policy="packed").policy.name == "packed"
    assert make_scheduler().policy.name == "round_robin"


def test_install_uninstall_and_context_restore():
    assert current_policy_name() is None
    install_policy("locality")
    try:
        assert current_policy_name() == "locality"
        with scheduling("packed"):
            assert current_policy_name() == "packed"
        assert current_policy_name() == "locality"
    finally:
        uninstall_policy()
    assert current_policy_name() is None


def test_install_validates_eagerly():
    with pytest.raises(UnknownPolicy):
        install_policy("fifo")
    assert current_policy_name() is None
    with pytest.raises(UnknownPolicy):
        make_scheduler(policy="fifo")


# -- observability -----------------------------------------------------------


def test_placement_emits_spans_counters_and_gauges():
    tracer = Tracer()
    with tracing(tracer):
        sched = make_scheduler(tracer=tracer)
        node = sched.place(PlacementRequest(kind="task", label="score"))
        sched.place(PlacementRequest(kind="retry", prev_node=node.name))
        sched.release(node.name)
    spans = [s for s in tracer.spans if s.category == "sched.place"]
    assert [s.name for s in spans] == ["place:score", "place:retry"]
    assert spans[0].attrs["policy"] == "round_robin"
    assert spans[0].node == node.name
    assert (
        tracer.metrics.value(
            "sched.placements", policy="round_robin", node=node.name
        )
        == 2
    )
    assert tracer.metrics.value("sched.replacement", kind="retry") == 1
    gauge = tracer.metrics.gauge("sched.node_load", node=node.name)
    assert gauge.value == 1  # two placed, one released
    assert gauge.max_value == 2


def test_null_tracer_records_nothing():
    sched = make_scheduler()
    sched.place(PlacementRequest(kind="task"))
    assert sched.env.tracer.enabled is False
