"""Unit tests for the fault injector's bookkeeping and installation."""

from repro.cluster import build_cluster
from repro.faults import (
    NULL_INJECTOR,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    current_injector,
    faults_injected,
    install_faults,
    uninstall_faults,
)
from repro.sim import Environment


def injector_for(*events, seed=None):
    injector = FaultInjector(FaultSchedule(events=tuple(events), seed=seed))
    injector.attach(Environment())  # clusters do this at construction
    return injector


# -- node outage windows ----------------------------------------------------------


def test_node_down_inside_window_only():
    injector = injector_for(FaultEvent(10.0, "node", target="worker-1", duration_s=5.0))
    assert not injector.node_down("worker-1", 9.9)
    assert injector.node_down("worker-1", 10.0)
    assert injector.node_down("worker-1", 14.9)
    assert not injector.node_down("worker-1", 15.0)
    assert not injector.node_down("worker-0", 12.0)


def test_node_crashed_between_detects_start_in_interval():
    injector = injector_for(FaultEvent(10.0, "node", target="worker-1", duration_s=5.0))
    assert injector.node_crashed_between("worker-1", 8.0, 12.0)
    assert injector.node_crashed_between("worker-1", 9.0, 10.0)  # (t0, t1]
    assert not injector.node_crashed_between("worker-1", 10.0, 12.0)
    assert not injector.node_crashed_between("worker-1", 1.0, 9.0)
    assert not injector.node_crashed_between("worker-0", 8.0, 12.0)


# -- link degradation -------------------------------------------------------------


def test_link_factor_max_over_overlapping_windows():
    injector = injector_for(
        FaultEvent(10.0, "link", duration_s=10.0, factor=4.0),
        FaultEvent(15.0, "link", duration_s=2.0, factor=9.0),
    )
    assert injector.link_factor(5.0) == 1.0
    assert injector.link_factor(12.0) == 4.0
    assert injector.link_factor(16.0) == 9.0  # max wins while both open
    assert injector.link_factor(19.0) == 4.0
    assert injector.link_factor(25.0) == 1.0


# -- task / operator fault consumption --------------------------------------------


def test_take_task_fault_respects_time_and_target():
    injector = injector_for(
        FaultEvent(10.0, "task", target="dice-*"),
        FaultEvent(20.0, "task", target="*"),
    )
    assert injector.take_task_fault("dice-chunk", 5.0) is None  # not due yet
    fault = injector.take_task_fault("dice-chunk", 12.0)
    assert fault is not None and fault.at_s == 10.0
    assert injector.take_task_fault("dice-chunk", 12.0) is None  # consumed
    assert injector.take_task_fault("gotta-answer", 25.0).at_s == 20.0
    assert injector.injected == 2


def test_take_task_fault_skips_nonmatching_label():
    injector = injector_for(FaultEvent(1.0, "task", target="gotta-*"))
    assert injector.take_task_fault("dice-chunk", 10.0) is None
    assert injector.injected == 0


def test_take_operator_fault_consumes_matching():
    injector = injector_for(FaultEvent(5.0, "operator", target="extract"))
    assert injector.take_operator_fault("tokenize", 10.0) is None
    assert injector.take_operator_fault("extract", 10.0) is not None
    assert injector.take_operator_fault("extract", 10.0) is None


def test_attach_resets_consumed_faults():
    injector = injector_for(FaultEvent(1.0, "task"))
    injector.attach(Environment())
    assert injector.take_task_fault("t", 2.0) is not None
    assert injector.take_task_fault("t", 2.0) is None
    injector.attach(Environment())  # next run replays the schedule
    assert injector.take_task_fault("t", 2.0) is not None


# -- timed application ------------------------------------------------------------


def test_unmatched_replica_drop_is_skipped_not_injected():
    injector = injector_for(FaultEvent(0.5, "replica", target="model"))
    env = Environment()
    injector.attach(env)
    env.run(until=env.timeout(1.0))
    assert injector.injected == 0
    assert injector.skipped == 1


def test_cluster_attaches_installed_injector():
    schedule = FaultSchedule(events=(FaultEvent(1.0, "task"),))
    with faults_injected(schedule) as injector:
        cluster = build_cluster(Environment())
        assert cluster.env.faults is injector
    clean = build_cluster(Environment())
    assert clean.env.faults is NULL_INJECTOR


# -- installation -----------------------------------------------------------------


def test_install_uninstall_round_trip():
    assert current_injector() is NULL_INJECTOR
    injector = install_faults(FaultSchedule(events=(FaultEvent(1.0, "task"),)))
    try:
        assert current_injector() is injector
    finally:
        uninstall_faults()
    assert current_injector() is NULL_INJECTOR


def test_faults_injected_restores_previous():
    outer = FaultSchedule(events=(FaultEvent(1.0, "task"),))
    inner = FaultSchedule(events=(FaultEvent(2.0, "link", duration_s=1.0, factor=2.0),))
    with faults_injected(outer) as outer_injector:
        with faults_injected(inner) as inner_injector:
            assert current_injector() is inner_injector
        assert current_injector() is outer_injector
    assert current_injector() is NULL_INJECTOR


def test_null_injector_is_benign():
    assert not NULL_INJECTOR.active
    assert NULL_INJECTOR.take_task_fault("any", 1e9) is None
    assert NULL_INJECTOR.take_operator_fault("any", 1e9) is None
    assert not NULL_INJECTOR.node_down("worker-0", 1e9)
    assert not NULL_INJECTOR.node_crashed_between("worker-0", 0.0, 1e9)
    assert NULL_INJECTOR.link_factor(1e9) == 1.0
    assert NULL_INJECTOR.injected == 0 and NULL_INJECTOR.retries == 0


def test_empty_schedule_injector_is_dormant():
    injector = FaultInjector(FaultSchedule.empty())
    assert not injector.active
    assert injector.take_task_fault("any", 100.0) is None
    assert injector.link_factor(100.0) == 1.0
