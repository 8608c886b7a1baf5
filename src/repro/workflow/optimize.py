"""Logical optimization passes over a workflow DAG.

The paper's GUI paradigm compiles a declarative operator graph, which
is exactly what makes *logical optimization* possible — a freedom the
script paradigm gives up by encoding the plan in imperative Python.
This module implements two rule passes that run between the spec
layer and the engine's physical plan:

``fuse_adjacent``
    Operator fusion: maximal linear chains of same-language,
    same-parallelism, one-in/one-out operators collapse into a single
    :class:`FusedOperator`.  One physical instance then charges all
    the chained per-tuple costs, and the inter-operator channel —
    encode, per-batch handling, decode, transfer — disappears
    entirely.

``placement_groups``
    Language-aware co-location: operators joined by a cross-language
    link are grouped, and the engine hands the group label to
    ``repro.sched`` as a ``colocate_key`` so the scheduler pins the
    group onto one node — the serialization *boundary* still pays the
    codec, but the placement-dependent network transfer on the
    paper's KGE pain-point edges (Python<->Scala) goes away.

Nothing runs them implicitly: a caller opts in by handing its plan
to :func:`optimize_workflow`, so every other plan executes exactly as
it was built — pinned by the timing-regression suite.
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, List, Optional, Sequence

from repro.relational import Schema, Tuple
from repro.workflow.dag import Link, Workflow
from repro.workflow.operator import (
    DeclaredStateExecutor,
    LogicalOperator,
    OperatorExecutor,
)

__all__ = [
    "FusedOperator",
    "fuse_adjacent",
    "optimize_workflow",
    "placement_groups",
]


# -- fusion --------------------------------------------------------------------


class _FusedExecutor(DeclaredStateExecutor):
    """Runs a chain of sub-executors inside one physical instance.

    The engine's consumer loop charges the *head* operator's per-tuple
    cost (``FusedOperator.tuple_cost_s``); this executor charges each
    inner stage's per-tuple cost for every row entering that stage, so
    the fused instance pays exactly the compute the split operators
    paid — minus the channel costs between them.
    """

    def __init__(
        self, executors: Sequence[OperatorExecutor], stage_costs: Sequence[float]
    ) -> None:
        super().__init__()
        self._executors = list(executors)
        self._stage_costs = list(stage_costs)

    def snapshot(self):
        return super().snapshot(), [executor.snapshot() for executor in self._executors]

    def restore(self, state) -> None:
        pending, states = state
        super().restore(pending)
        for executor, executor_state in zip(self._executors, states):
            executor.restore(executor_state)

    def _drain(self, executor: OperatorExecutor) -> None:
        seconds, flops = executor.pending.take()
        self.pending.seconds += seconds
        self.pending.flops += flops

    def open(self) -> None:
        for executor in self._executors:
            executor.open()
            self._drain(executor)

    def _through_stage(
        self, index: int, rows: Iterable[Tuple], port: int
    ) -> List[Tuple]:
        executor = self._executors[index]
        stage_port = port if index == 0 else 0
        out: List[Tuple] = []
        for row in rows:
            if index > 0:
                self.pending.seconds += self._stage_costs[index]
            out.extend(executor.process_tuple(row, stage_port))
            self._drain(executor)
        return out

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        rows: List[Tuple] = [row]
        for index in range(len(self._executors)):
            rows = self._through_stage(index, rows, port)
            if not rows:
                return ()
        return rows

    def on_finish(self, port: int) -> Iterable[Tuple]:
        rows: List[Tuple] = []
        for index, executor in enumerate(self._executors):
            rows = self._through_stage(index, rows, port) if rows else []
            rows.extend(executor.on_finish(port if index == 0 else 0))
            self._drain(executor)
        return rows

    def close(self) -> None:
        for executor in self._executors:
            executor.close()
            self._drain(executor)


class FusedOperator(LogicalOperator):
    """A maximal linear chain of operators fused into one.

    Head properties (language, parallelism, partitioning, engine-side
    per-tuple cost) come from the first operator; the output batch
    size comes from the last (it governs the fused operator's
    outbound channels).
    """

    def __init__(self, chain: Sequence[LogicalOperator], operator_id: str) -> None:
        if len(chain) < 2:
            raise ValueError("fusion needs at least two operators")
        head, tail = chain[0], chain[-1]
        super().__init__(
            operator_id,
            head.language,
            num_workers=head.num_workers,
            per_tuple_work_s=head.per_tuple_work_s,
            framework_cores=head.framework_cores,
            output_batch_size=tail.output_batch_size,
        )
        self.chain = tuple(chain)

    @property
    def is_blocking(self) -> bool:
        return any(op.is_blocking for op in self.chain)

    def partition_key(self, port: int) -> Optional[str]:
        return self.chain[0].partition_key(port)

    def tuple_cost_s(self, port: int = 0) -> float:
        return self.chain[0].tuple_cost_s(port)

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        schema = self.chain[0].output_schema(input_schemas)
        for op in self.chain[1:]:
            schema = op.output_schema([schema])
        return schema

    def create_executor(self, worker_index: int = 0) -> OperatorExecutor:
        return _FusedExecutor(
            [op.create_executor(worker_index) for op in self.chain],
            [op.tuple_cost_s(0) for op in self.chain],
        )


def _linear(operator: LogicalOperator) -> bool:
    """One-in/one-out, not an endpoint of the DAG."""
    return (
        not operator.is_source
        and not operator.is_sink
        and operator.num_input_ports == 1
        and operator.num_output_ports == 1
    )


def _fusable(workflow: Workflow, link: Link) -> bool:
    producer = workflow.operators[link.producer_id]
    consumer = workflow.operators[link.consumer_id]
    if not _linear(producer) or not _linear(consumer):
        return False
    if len(workflow.out_links(producer.operator_id)) != 1:
        return False
    if len(workflow.in_links(consumer.operator_id)) != 1:
        return False
    if producer.language != consumer.language:
        return False
    if producer.num_workers != consumer.num_workers:
        return False
    if producer.framework_cores != consumer.framework_cores:
        return False
    # A multi-worker consumer that hash-partitions its input routes
    # rows by key; fusing would pin each row to its producer's worker.
    if consumer.num_workers > 1 and consumer.partition_key(0) is not None:
        return False
    return True


def fuse_adjacent(workflow: Workflow) -> Workflow:
    """Collapse fusable linear chains into :class:`FusedOperator`s."""
    fusable = {
        (link.producer_id, link.consumer_id)
        for link in workflow.links
        if _fusable(workflow, link)
    }
    next_of = {producer: consumer for producer, consumer in fusable}
    has_fused_in = {consumer for _, consumer in fusable}
    replacements: Dict[str, LogicalOperator] = {}
    taken = set(workflow.operators)
    for operator in workflow.topological_order():
        op_id = operator.operator_id
        if op_id in has_fused_in or op_id not in next_of:
            continue
        chain = [op_id]
        while chain[-1] in next_of:
            chain.append(next_of[chain[-1]])
        fused = FusedOperator(
            [workflow.operators[member] for member in chain],
            _mint("+".join(chain), taken),
        )
        taken.add(fused.operator_id)
        replacements.update(dict.fromkeys(chain, fused))
    return _rebuild(workflow, replacements)


def _rebuild(
    workflow: Workflow, replacements: Dict[str, LogicalOperator]
) -> Workflow:
    """A new DAG with some operators replaced; on an acyclic graph, the
    links left joining a replacement to itself are a fused chain's own."""
    rebuilt = Workflow(workflow.name)
    ops = {op_id: replacements.get(op_id, op) for op_id, op in workflow.operators.items()}
    for operator in ops.values():
        if operator.operator_id not in rebuilt.operators:
            rebuilt.add_operator(operator)
    for link in workflow.links:
        producer, consumer = ops[link.producer_id], ops[link.consumer_id]
        if producer is not consumer:
            rebuilt.link(producer, consumer, link.output_port, link.input_port)
    rebuilt.placement_hints = dict(workflow.placement_hints)
    return rebuilt


def _mint(base: str, taken: Container[str]) -> str:
    """``base``, or the first of ``base~2``, ``base~3``, ... not in
    ``taken``: a fused chain never shares an id with another operator."""
    candidate, suffix = base, 1
    while candidate in taken:
        suffix += 1
        candidate = f"{base}~{suffix}"
    return candidate


# -- language-aware placement --------------------------------------------------


def placement_groups(workflow: Workflow) -> Dict[str, str]:
    """Group operators joined by cross-language links (union-find).

    The engine hands each group label to the scheduler as a
    ``colocate_key``: the group's instances land on one node, so the
    cross-language edges — which already pay the codec — at least stop
    paying the network transfer.
    """
    parent: Dict[str, str] = {}

    def find(op_id: str) -> str:
        root = op_id
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(op_id, op_id) != root:
            parent[op_id], op_id = root, parent[op_id]
        return root

    touched = set()
    for link in workflow.links:
        producer = workflow.operators[link.producer_id]
        consumer = workflow.operators[link.consumer_id]
        if producer.language == consumer.language:
            continue
        touched.add(link.producer_id)
        touched.add(link.consumer_id)
        root_a, root_b = find(link.producer_id), find(link.consumer_id)
        if root_a != root_b:
            parent[max(root_a, root_b)] = min(root_a, root_b)
    return {op_id: f"lang-group:{find(op_id)}" for op_id in sorted(touched)}


# -- the driver ----------------------------------------------------------------


def optimize_workflow(workflow: Workflow) -> Workflow:
    """Run both rule passes; returns a new workflow.

    Placement hints are derived from the fused operator graph.
    """
    optimized = fuse_adjacent(workflow)
    optimized.placement_hints = placement_groups(optimized)
    return optimized
