"""Compile a workflow spec into a Ray-like script plan.

The dual-paradigm half of the spec layer
(:mod:`repro.workflow.spec`): the same ``repro/workflow-spec@1``
document that :func:`repro.workflow.spec.build_workflow` turns into a
pipelined operator DAG compiles here into a *script* — a task graph of
:meth:`RayxRuntime.submit` calls, one task per (operator, worker
instance), exactly the shape a data scientist would hand-write against
Ray (paper Section III-C).

The compilation preserves the paradigm differences the paper measures:

* **No pipelining.**  Each task materialises its operator's entire
  output as one object-store value; consumers block on upstream refs
  (``ray.get`` semantics via top-level ref dereferencing) instead of
  streaming batches.
* **Coarse compute.**  A task accumulates its executor's declared
  charges and settles them in one ``ctx.compute`` / one
  ``ctx.model_compute`` at the end — the script runtime sees operator
  granularity, not tuple granularity.
* **Explicit partitioning.**  Hash / round-robin / broadcast routing,
  which the workflow engine does on the wire, happens *inside* the
  consuming task over the concatenated upstream outputs — the rows a
  worker receives form the same multisets either way.

Row results are therefore identical across paradigms; elapsed virtual
times are not (and are not meant to be).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple as PyTuple

from repro.cluster import Cluster, build_cluster
from repro.config import ReproConfig
from repro.rayx.objectref import ObjectRef
from repro.rayx.runtime import RayxRuntime, TaskContext, run_script
from repro.relational import Schema, Table, Tuple
from repro.sim import Environment
from repro.workflow.dag import Workflow
from repro.workflow.operator import LogicalOperator, SourceExecutor
from repro.workflow.partitioning import (
    HashPartitioner,
    RoundRobinPartitioner,
    partitioner_for,
    stable_hash,
)
from repro.workflow.spec.loader import build_workflow
from repro.workflow.spec.model import WorkflowSpec

__all__ = ["ScriptTask", "ScriptPlan", "compile_script_plan"]


@dataclass(frozen=True)
class ScriptTask:
    """One planned ``submit`` call: an operator's worker instance."""

    label: str
    operator_id: str
    worker_index: int
    #: Labels of the upstream tasks whose refs this task receives.
    upstream: PyTuple[str, ...]

    def __repr__(self) -> str:
        deps = ", ".join(self.upstream) or "-"
        return f"<ScriptTask {self.label} <- {deps}>"


def _task_label(operator_id: str, worker_index: int) -> str:
    return f"{operator_id}#{worker_index}"


def _worker_share(
    rows: List[Tuple],
    operator: LogicalOperator,
    port: int,
    worker_index: int,
) -> List[Tuple]:
    """The slice of ``rows`` this worker instance consumes.

    Applies :func:`repro.workflow.partitioning.partitioner_for` to the
    concatenated upstream output (deterministic producer order), so
    each worker sees the same multiset of rows as its engine
    counterpart's partitioner routes to it.
    """
    route = partitioner_for(operator, port, operator.num_workers)
    if isinstance(route, HashPartitioner):
        return [
            row
            for row in rows
            if stable_hash(row[route.key]) % route.num_consumers == worker_index
        ]
    if isinstance(route, RoundRobinPartitioner):
        return rows[worker_index :: route.num_consumers]
    return rows  # broadcast


def _make_task(
    operator: LogicalOperator,
    worker_index: int,
    port_ref_counts: Sequence[int],
):
    """Build the remote task body for one (operator, worker) pair.

    The task receives the flattened upstream chunk values (the runtime
    dereferences top-level refs on the task's node, charging the
    object-store transfer), regroups them by input port using
    ``port_ref_counts``, selects this worker's share, and drives the
    executor lifecycle eagerly — charging all accumulated virtual time
    in one settlement at the end.
    """

    def task(ctx: TaskContext, *chunks: List[Tuple]) -> Generator:
        executor = operator.create_executor(worker_index)
        executor.open()
        seconds, flops = executor.pending.take()
        out: List[Tuple] = []
        if isinstance(executor, SourceExecutor):
            cost = operator.tuple_cost_s(0)
            for row in executor.produce():
                extra_s, extra_f = executor.pending.take()
                seconds += cost + extra_s
                flops += extra_f
                out.append(row)
        else:
            offset = 0
            for port, count in enumerate(port_ref_counts):
                incoming = [
                    row
                    for chunk in chunks[offset : offset + count]
                    for row in chunk
                ]
                offset += count
                cost = operator.tuple_cost_s(port)
                for row in _worker_share(incoming, operator, port, worker_index):
                    out.extend(executor.process_tuple(row, port))
                    extra_s, extra_f = executor.pending.take()
                    seconds += cost + extra_s
                    flops += extra_f
                out.extend(executor.on_finish(port))
                extra_s, extra_f = executor.pending.take()
                seconds += extra_s
                flops += extra_f
        executor.close()
        extra_s, extra_f = executor.pending.take()
        seconds += extra_s
        flops += extra_f
        # One coarse settlement: the script paradigm charges at task
        # granularity, not tuple granularity (no pipelining).
        if seconds > 0:
            yield from ctx.compute(seconds)
        if flops > 0:
            yield from ctx.model_compute(flops)
        if operator.is_sink:
            # Sink executors collect rather than emit.
            return list(executor.rows)
        return out

    task.__name__ = _task_label(operator.operator_id, worker_index)
    return task


class ScriptPlan:
    """A workflow compiled to the script paradigm.

    ``tasks`` lists the planned submissions in dependency order;
    :meth:`driver` is a ready-to-run :func:`repro.rayx.run_script`
    driver returning ``{sink_id: Table}``; :meth:`run` is the one-call
    convenience wrapper.
    """

    def __init__(self, workflow: Workflow) -> None:
        self.workflow = workflow
        #: Output schemas per operator (compiling also runs the full
        #: GUI-time validation, so a bad plan fails here, not mid-run).
        self.schemas: Dict[str, Schema] = workflow.compile_schemas()
        self.tasks: List[ScriptTask] = []
        #: Per operator, the worker count of each input port's producer.
        self._port_ref_counts: Dict[str, List[int]] = {}
        for operator in workflow.topological_order():
            op_id = operator.operator_id
            producers = [
                workflow.operators[link.producer_id] for link in workflow.in_links(op_id)
            ]
            self._port_ref_counts[op_id] = [p.num_workers for p in producers]
            upstream = tuple(
                _task_label(p.operator_id, w) for p in producers for w in range(p.num_workers)
            )
            self.tasks.extend(
                ScriptTask(_task_label(op_id, w), op_id, w, upstream)
                for w in range(operator.num_workers)
            )

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def driver(self, runtime: RayxRuntime) -> Generator:
        """Submit :attr:`tasks` in order; gather sink rows into tables."""
        refs: Dict[str, ObjectRef] = {}
        for task in self.tasks:
            body = _make_task(
                self.workflow.operators[task.operator_id],
                task.worker_index,
                self._port_ref_counts[task.operator_id],
            )
            refs[task.label] = runtime.submit(
                body, *(refs[label] for label in task.upstream), label=task.label
            )
        results: Dict[str, Table] = {}
        for sink in self.workflow.sinks():
            chunks = yield from runtime.get_all(
                [refs[_task_label(sink.operator_id, w)] for w in range(sink.num_workers)]
            )
            rows = [row for chunk in chunks for row in chunk]
            results[sink.operator_id] = Table(self.schemas[sink.operator_id], rows)
        return results

    def run(
        self,
        cluster: Optional[Cluster] = None,
        num_cpus: int = 4,
        config: Optional[ReproConfig] = None,
    ) -> Dict[str, Table]:
        """Execute the plan; returns the collected sink tables.

        Builds the paper's testbed cluster when none is given; read
        the elapsed virtual time from ``cluster.env.now``.
        """
        if cluster is None:
            cluster = build_cluster(Environment(), config)
        return run_script(cluster, self.driver, num_cpus=num_cpus, config=config)


def compile_script_plan(
    source: Any, bindings: Optional[Dict[str, Any]] = None
) -> ScriptPlan:
    """Compile a spec (or built workflow) to a :class:`ScriptPlan`.

    ``source`` may be a :class:`WorkflowSpec`, a raw spec document
    (``dict``), or an already-built :class:`Workflow` — the latter lets
    callers compile a plan assembled in code.
    """
    if isinstance(source, Workflow):
        workflow = source
    else:
        spec = (
            source
            if isinstance(source, WorkflowSpec)
            else WorkflowSpec.from_json(source)
        )
        workflow = build_workflow(spec, bindings)
    return ScriptPlan(workflow)
