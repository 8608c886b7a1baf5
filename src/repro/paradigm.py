"""The paradigm seam: run one spec under a named paradigm, compare rows.

The one place that knows how a ``repro/workflow-spec@1`` document is
executed — the pipelined engine for ``"workflow"``, the compiled
Ray-like task graph for ``"script"`` — and what "identical output"
means (:meth:`repro.relational.Table.multiset` per sink).  Clusters
come from :func:`repro.cluster.build_cluster`, so every installed layer
applies to a seam run as it does to the paper tasks; the seam itself
starts no span and bumps no counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Type, Union

from repro.cluster import Cluster, build_cluster
from repro.rayx.compile import compile_script_plan
from repro.relational import Table
from repro.sim import Environment
from repro.workflow.engine import run_workflow
from repro.workflow.spec import WorkflowSpec, build_workflow

__all__ = [
    "PARADIGMS",
    "PARADIGM_SCRIPT",
    "PARADIGM_WORKFLOW",
    "SinkDiff",
    "SpecRun",
    "check_paradigm",
    "diff_rows",
    "run_both",
    "run_spec",
]

PARADIGM_WORKFLOW = "workflow"
PARADIGM_SCRIPT = "script"
#: In the order :func:`run_both` executes them.
PARADIGMS = (PARADIGM_WORKFLOW, PARADIGM_SCRIPT)


def check_paradigm(paradigm: str, error: Type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``paradigm`` is one of :data:`PARADIGMS`."""
    if paradigm not in PARADIGMS:
        raise error(f"unknown paradigm {paradigm!r} (have: script, workflow)")


@dataclass(frozen=True)
class SpecRun:
    """One execution of one spec under one paradigm."""

    name: str
    paradigm: str
    #: Virtual seconds from submission to the last sink row.
    elapsed_s: float
    #: The collected table of every sink, by operator id.
    tables: Dict[str, Table]
    #: Worker instances deployed (workflow) / tasks submitted (script).
    units: int

    @property
    def rows(self) -> List[Tuple[str, ...]]:
        """Every sink's row multiset, sinks in id order — what two runs
        of one spec are compared by."""
        return [
            row for sink in sorted(self.tables) for row in self.tables[sink].multiset()
        ]


class SinkDiff(NamedTuple):
    """Verdict on one sink of two runs of the same spec."""

    sink_id: str
    left_rows: int
    right_rows: int
    identical: bool


def run_spec(
    spec: Union[WorkflowSpec, Dict[str, Any]],
    paradigm: str,
    bindings: Optional[Dict[str, Any]] = None,
    cluster: Optional[Cluster] = None,
) -> SpecRun:
    """Execute ``spec`` (parsed, or the raw document) under ``paradigm``
    on ``cluster`` — by default a fresh testbed."""
    check_paradigm(paradigm)
    if not isinstance(spec, WorkflowSpec):
        spec = WorkflowSpec.from_json(spec)
    if cluster is None:
        cluster = build_cluster(Environment())
    if paradigm == PARADIGM_WORKFLOW:
        result = run_workflow(cluster, build_workflow(spec, bindings))
        elapsed_s, tables = result.elapsed_s, result.results
        units = result.num_worker_instances
    else:
        plan = compile_script_plan(spec, bindings)
        started = cluster.env.now
        tables = plan.run(cluster=cluster)
        elapsed_s, units = cluster.env.now - started, plan.num_tasks
    return SpecRun(spec.name, paradigm, elapsed_s, tables, units)


def run_both(spec, bindings: Optional[Dict[str, Any]] = None) -> Tuple[SpecRun, SpecRun]:
    """``(workflow run, script run)`` of ``spec``, in that order, each
    on its own fresh cluster."""
    return (
        run_spec(spec, PARADIGM_WORKFLOW, bindings),
        run_spec(spec, PARADIGM_SCRIPT, bindings),
    )


def diff_rows(left: SpecRun, right: SpecRun) -> List[SinkDiff]:
    """Per-sink comparison of two runs of one spec, sinks in id order."""
    diffs = []
    for sink_id in sorted(left.tables):
        ours = left.tables[sink_id].multiset()
        theirs = right.tables[sink_id].multiset()
        diffs.append(SinkDiff(sink_id, len(ours), len(theirs), ours == theirs))
    return diffs
