"""Property: memory pressure changes timing, never results.

For any memory policy (dormant or spilling, ample or shrunken RAM, any
watermarks/bandwidths), on either engine, with or without a seeded
fault schedule (including ``oom`` RAM clamps), the run's output rows
are identical to the default dormant-config run.  This is the contract
that makes ``--mem`` safe to add to any experiment: the policy decides
*when* bytes move between RAM and disk and nothing else.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.config import MIB, MemoryConfig
from repro.faults import FaultSchedule, faults_injected
from repro.rayx import run_script
from repro.relational import Table, column_greater
from repro.sim import Environment
from repro.workflow import Workflow, run_workflow
from repro.workflow.operators import FilterOperator, SinkOperator, TableSource
from tests.support.workflows import SCHEMA


def script_outputs(mem_config=None):
    def task(ctx, x):
        yield from ctx.compute(0.3)
        return [(x, float(x) * 1.5)]

    def driver(rt):
        refs = [rt.submit(task, i, label=f"t{i}") for i in range(6)]
        partials = yield from rt.get_all(refs)
        return sorted(row for partial in partials for row in partial)

    cluster = _cluster(mem_config)
    return cluster, run_script(cluster, driver, num_cpus=3)


def workflow_outputs(mem_config=None):
    table = Table.from_rows(SCHEMA, [[i, float(i % 5)] for i in range(40)])
    wf = Workflow("mem-props")
    source = wf.add_operator(TableSource("rows", table, num_workers=2))
    keep = wf.add_operator(
        FilterOperator("keep", column_greater("score", 1.0), num_workers=2)
    )
    sink = wf.add_operator(SinkOperator("out"))
    wf.link(source, keep)
    wf.link(keep, sink)
    cluster = _cluster(mem_config)
    result = run_workflow(cluster, wf)
    return cluster, sorted(tuple(row.values) for row in result.table("out").rows)


def _cluster(mem_config):
    return build_cluster(Environment(), memory=mem_config)


def _pressure_rams(probe_fn):
    """Probe a workload with the policy on and ample RAM to learn its
    footprint, then return RAM sizes from the survivable floor (the
    largest single allocation) up to no clamp at all."""
    cluster, _ = probe_fn(MemoryConfig(enabled=True))
    peak = max(node.ram_peak for node in cluster._nodes.values())
    largest = max(node.largest_alloc for node in cluster._nodes.values())
    rams = [None]
    if largest > 0:
        rams.extend([largest, (peak + largest) // 2 or largest, peak])
    return rams


_, SCRIPT_EXPECTED = script_outputs()
_, WORKFLOW_EXPECTED = workflow_outputs()
SCRIPT_RAMS = _pressure_rams(script_outputs)
WORKFLOW_RAMS = _pressure_rams(workflow_outputs)


def enabled_configs(rams):
    return st.builds(
        MemoryConfig,
        enabled=st.just(True),
        node_ram_bytes=st.sampled_from(rams),
        spill_watermark=st.sampled_from([0.5, 0.8]),
        admission_watermark=st.sampled_from([0.9, 0.95]),
        spill_write_bytes_per_s=st.sampled_from([256.0 * 1024, 100.0 * MIB]),
        spill_read_bytes_per_s=st.sampled_from([256.0 * 1024, 100.0 * MIB]),
    )


def mem_configs(rams):
    return st.one_of(st.just(MemoryConfig()), enabled_configs(rams))


#: Fault schedules without RAM clamps — composed with *any* memory
#: config, including shrunken-RAM ones.
fault_schedules = st.one_of(
    st.none(),
    st.builds(
        FaultSchedule.generate,
        seed=st.integers(0, 2**16),
        horizon_s=st.just(8.0),
        tasks=st.integers(0, 2),
        operators=st.integers(0, 2),
        nodes=st.integers(0, 1),
        replicas=st.integers(0, 1),
    ),
)

#: Schedules *with* RAM clamps — composed with ample-RAM configs only
#: (a clamp below the largest single allocation is a legitimate death,
#: not an output-correctness question).
oom_schedules = st.builds(
    FaultSchedule.generate,
    seed=st.integers(0, 2**16),
    horizon_s=st.just(8.0),
    tasks=st.integers(0, 1),
    replicas=st.integers(0, 1),
    ooms=st.integers(1, 2),
    oom_factor=st.sampled_from([2.0, 4.0]),
)


def run_under(mem_config, schedule, run_fn):
    if schedule is not None:
        with faults_injected(schedule):
            return run_fn(mem_config)[1]
    return run_fn(mem_config)[1]


@settings(max_examples=12, deadline=None)
@given(config=mem_configs(SCRIPT_RAMS), schedule=fault_schedules)
def test_script_outputs_equal_default_run(config, schedule):
    assert run_under(config, schedule, script_outputs) == SCRIPT_EXPECTED


@settings(max_examples=12, deadline=None)
@given(config=mem_configs(WORKFLOW_RAMS), schedule=fault_schedules)
def test_workflow_outputs_equal_default_run(config, schedule):
    assert run_under(config, schedule, workflow_outputs) == WORKFLOW_EXPECTED


@settings(max_examples=8, deadline=None)
@given(schedule=oom_schedules)
def test_oom_clamps_preserve_script_outputs(schedule):
    config = MemoryConfig(enabled=True)
    assert run_under(config, schedule, script_outputs) == SCRIPT_EXPECTED


@settings(max_examples=8, deadline=None)
@given(schedule=oom_schedules)
def test_oom_clamps_preserve_workflow_outputs(schedule):
    config = MemoryConfig(enabled=True)
    assert run_under(config, schedule, workflow_outputs) == WORKFLOW_EXPECTED
