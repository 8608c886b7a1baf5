"""The workflow DAG: operators, links, validation, schema propagation.

Mirrors what the Texera GUI enforces at editing time: operators expose
typed ports, links connect exactly one producer output to one consumer
input, the graph must be acyclic, and schemas propagate edge-by-edge so
configuration errors surface before execution (paper Section III-A:
"operators with explicit connections that indicate data flow").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import InvalidWorkflow, SchemaError
from repro.relational import Schema
from repro.workflow.operator import LogicalOperator

__all__ = ["Link", "Workflow", "topological_ids"]


def _peel(ids: Iterable[str], edges: Iterable[Tuple[str, str]]) -> List[str]:
    """Kahn, smallest ready id first; ids a cycle blocks are left out."""
    indegree = dict.fromkeys(ids, 0)
    successors: Dict[str, List[str]] = {node: [] for node in indegree}
    for producer, consumer in edges:
        indegree[consumer] += 1
        successors[producer].append(consumer)
    ready = [node for node, degree in indegree.items() if degree == 0]
    heapq.heapify(ready)
    order: List[str] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for consumer in successors[node]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                heapq.heappush(ready, consumer)
    return order


def topological_ids(
    ids: Sequence[str], edges: Sequence[Tuple[str, str]]
) -> Tuple[List[str], List[str]]:
    """``(order, cycle)`` over ``ids`` and ``(producer, consumer)`` edges.

    ``order`` is the dependency order, smallest ready id first; on a
    cyclic graph it stops short and ``cycle`` (else empty) names, sorted,
    what is left after also peeling the rest from the sink side.
    """
    order = _peel(ids, edges)
    if len(order) == len(ids):
        return order, []
    placed = set(order)
    rest = [node for node in ids if node not in placed]
    backward = [
        (consumer, producer)
        for producer, consumer in edges
        if producer not in placed and consumer not in placed
    ]
    drained = set(_peel(rest, backward))
    return order, sorted(node for node in rest if node not in drained)


def _port_range(count: int, side: str) -> str:
    if count == 0:
        return f"operator has no {side} ports"
    return f"valid {side} ports: 0..{count - 1}"


@dataclass(frozen=True)
class Link:
    """A directed edge between two operator ports."""

    producer_id: str
    output_port: int
    consumer_id: str
    input_port: int

    def __repr__(self) -> str:
        return (
            f"{self.producer_id}[{self.output_port}] -> "
            f"{self.consumer_id}[{self.input_port}]"
        )


class Workflow:
    """A user-assembled DAG of logical operators: the one graph, read
    through read-only views and edited only through its methods."""

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self._operators: Dict[str, LogicalOperator] = {}
        self._links: List[Link] = []

    @property
    def operators(self) -> Mapping[str, LogicalOperator]:
        """Operators by id, in the order they were added (read-only)."""
        return MappingProxyType(self._operators)

    @property
    def links(self) -> Tuple[Link, ...]:
        """Links in the order they were made (read-only)."""
        return tuple(self._links)

    # -- construction ---------------------------------------------------------

    def add_operator(self, operator: LogicalOperator) -> LogicalOperator:
        """Add an operator; ids must be unique within the workflow."""
        if operator.operator_id in self._operators:
            raise InvalidWorkflow(
                f"duplicate operator id {operator.operator_id!r}"
            )
        self._operators[operator.operator_id] = operator
        return operator

    def link(
        self,
        producer: LogicalOperator,
        consumer: LogicalOperator,
        output_port: int = 0,
        input_port: int = 0,
    ) -> Link:
        """Connect ``producer[output_port]`` to ``consumer[input_port]``."""
        attempted = Link(
            producer.operator_id, output_port, consumer.operator_id, input_port
        )
        self._require_operator(producer.operator_id, attempted)
        self._require_operator(consumer.operator_id, attempted)
        if not 0 <= output_port < producer.num_output_ports:
            raise InvalidWorkflow(
                f"dangling link {attempted!r}: operator "
                f"{producer.operator_id!r} has no output port {output_port} "
                f"({_port_range(producer.num_output_ports, 'output')})"
            )
        if not 0 <= input_port < consumer.num_input_ports:
            raise InvalidWorkflow(
                f"dangling link {attempted!r}: operator "
                f"{consumer.operator_id!r} has no input port {input_port} "
                f"({_port_range(consumer.num_input_ports, 'input')})"
            )
        for existing in self._links:
            if (
                existing.consumer_id == consumer.operator_id
                and existing.input_port == input_port
            ):
                raise InvalidWorkflow(
                    f"duplicate link into input port {input_port} of operator "
                    f"{consumer.operator_id!r}: {attempted!r} conflicts with "
                    f"existing {existing!r}"
                )
        self._links.append(attempted)
        return attempted

    def _require_operator(
        self, operator_id: str, attempted: Optional[Link] = None
    ) -> LogicalOperator:
        try:
            return self._operators[operator_id]
        except KeyError:
            context = f" (while adding link {attempted!r})" if attempted else ""
            raise InvalidWorkflow(
                f"dangling link: operator {operator_id!r} was not added to "
                f"the workflow{context}"
            ) from None

    # -- queries ------------------------------------------------------------------

    def in_links(self, operator_id: str) -> List[Link]:
        """Incoming links of one operator, ordered by input port."""
        links = [l for l in self._links if l.consumer_id == operator_id]
        return sorted(links, key=lambda l: l.input_port)

    def sources(self) -> List[LogicalOperator]:
        return [op for op in self._operators.values() if op.is_source]

    def sinks(self) -> List[LogicalOperator]:
        return [op for op in self._operators.values() if op.is_sink]

    @property
    def num_operators(self) -> int:
        """The paper's "number of operators" metric (Section IV-B)."""
        return len(self._operators)

    # -- validation & compilation ------------------------------------------------------

    def topological_order(self) -> List[LogicalOperator]:
        """Operators in dependency order; raises on cycles."""
        order, cycle = topological_ids(
            list(self._operators),
            [(link.producer_id, link.consumer_id) for link in self._links],
        )
        if cycle:
            on_cycle = set(cycle)
            edges = [
                repr(link)
                for link in self._links
                if link.producer_id in on_cycle and link.consumer_id in on_cycle
            ]
            raise InvalidWorkflow(
                f"workflow contains a cycle involving operators {cycle} "
                f"(links on the cycle: {edges})"
            )
        return [self._operators[op_id] for op_id in order]

    def validate(self) -> List[LogicalOperator]:
        """Full structural validation (GUI-time checks); returns the
        operators in dependency order."""
        if not self._operators:
            raise InvalidWorkflow("workflow has no operators")
        if not self.sinks():
            raise InvalidWorkflow("workflow has no sink operator")
        for operator in self._operators.values():
            connected = {l.input_port for l in self.in_links(operator.operator_id)}
            expected = set(range(operator.num_input_ports))
            missing = expected - connected
            if missing:
                raise InvalidWorkflow(
                    f"operator {operator.operator_id!r} input ports "
                    f"{sorted(missing)} are unconnected"
                )
        return self.topological_order()  # raises on cycles

    def compile_schemas(self) -> Dict[str, Schema]:
        """Propagate schemas through the DAG; returns output schemas.

        Must be called (directly or via the engine) before executors
        are created — stateful operators capture their input schemas
        here.
        """
        output_schemas: Dict[str, Schema] = {}
        for operator in self.validate():
            in_links = self.in_links(operator.operator_id)
            input_schemas = [output_schemas[l.producer_id] for l in in_links]
            try:
                output_schemas[operator.operator_id] = operator.output_schema(
                    input_schemas
                )
            except InvalidWorkflow:
                raise  # already scoped to the operator by the raiser
            except SchemaError as exc:
                ports = ", ".join(
                    f"port {l.input_port} (from {l.producer_id!r})"
                    for l in in_links
                ) or "no input ports"
                raise InvalidWorkflow(
                    f"operator {operator.operator_id!r}: schema mismatch on "
                    f"{ports}: {exc}"
                ) from exc
        return output_schemas

    def __repr__(self) -> str:
        return (
            f"<Workflow {self.name!r}: {len(self._operators)} operators, "
            f"{len(self._links)} links>"
        )
