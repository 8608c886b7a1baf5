"""FLOPs are priced on the node's own machine, on both engines.

A ``fast`` shape (4e9 FLOP/s per core) added to a cluster with
``add_node`` runs a model charge in exactly half the time a ``default``
node (2e9) takes, and a ``slow`` one (1e9) in exactly twice — whatever
the topology's homogeneous machine says.  Each engine keeps its own
core policy: Ray pins the framework to ``torch_cores_per_task`` cores,
Texera lets it use ``torch_cores_per_operator`` clamped to the node.
"""

import pytest

from repro.cluster import build_cluster
from repro.config import ClusterTopologyConfig, ReproConfig, default_config
from repro.elastic import machine_shape
from repro.rayx import run_script
from repro.relational import FieldType, Schema, Table
from repro.sim import Environment
from repro.workflow import Workflow, run_workflow
from repro.workflow.operators import ModelApplyOperator, SinkOperator, TableSource

FLOPS = 8e9
NO_WORKERS = ReproConfig(topology=ClusterTopologyConfig(num_workers=0))
SCHEMA = Schema.of(id=FieldType.INT)


def framework_holds(shape, run):
    """``(seconds, cores)`` of each framework hold ``run`` makes on a
    lone worker of ``shape`` (every other charge holds one core)."""
    cluster = build_cluster(Environment(), NO_WORKERS)
    node = cluster.add_node("worker-0", machine_shape(shape))
    holds = []
    compute = node.compute

    def recording(duration_s, cores=1):
        holds.append((duration_s, cores))
        return compute(duration_s, cores=cores)

    node.compute = recording
    run(cluster)
    return holds


def script_model(cluster):
    def infer(ctx):
        yield from ctx.model_compute(FLOPS)

    def driver(rt):
        yield from rt.get(rt.submit(infer))

    run_script(cluster, driver)


def workflow_model(framework_cores):
    def run(cluster):
        wf = Workflow("flops")
        scan = wf.add_operator(TableSource("scan", Table.from_rows(SCHEMA, [[1]])))
        model = wf.add_operator(
            ModelApplyOperator(
                "model",
                SCHEMA,
                loader=lambda: None,
                apply_fn=lambda model, row: row.values,
                flops_fn=lambda model, row: FLOPS,
                framework_cores=framework_cores,
            )
        )
        sink = wf.add_operator(SinkOperator("out"))
        wf.link(scan, model)
        wf.link(model, sink)
        run_workflow(cluster, wf)

    return run


def multi_core(holds):
    return [hold for hold in holds if hold[1] > 1]


def test_script_model_compute_scales_with_the_node():
    (default,) = framework_holds("default", script_model)
    assert default == (FLOPS / 2e9, 1)
    assert framework_holds("fast", script_model) == [(default[0] / 2, 1)]
    assert framework_holds("slow", script_model) == [(default[0] * 2, 1)]


def test_workflow_flops_scale_with_the_node():
    run = workflow_model(None)
    (default,) = multi_core(framework_holds("default", run))
    assert default[1] == 8
    # default (8 vCPUs) and fast (16) both clamp the 8 framework cores to 8.
    assert multi_core(framework_holds("fast", run)) == [(default[0] / 2, 8)]


def test_workflow_flops_on_a_slow_node():
    run = workflow_model(4)
    (default,) = multi_core(framework_holds("default", run))
    assert multi_core(framework_holds("slow", run)) == [(default[0] * 2, 4)]
    # With the default 8 framework cores the slow shape's 4 vCPUs clamp.
    efficiency = default_config().workflow.multicore_efficiency
    clamped = FLOPS / (1e9 * (1.0 + 3 * efficiency))
    assert multi_core(framework_holds("slow", workflow_model(None))) == [(clamped, 4)]


@pytest.mark.parametrize("shape", ["default", "fast", "slow"])
def test_second_based_charges_ignore_the_shape(shape):
    def run(cluster):
        def work(ctx):
            yield from ctx.compute(0.5, cores=2)

        def driver(rt):
            yield from rt.get(rt.submit(work))

        run_script(cluster, driver)

    assert framework_holds(shape, run) == [(0.5, 2)]
