"""Property: one order function, and both graph layers agree on it.

``topological_ids`` must order every graph exactly as the frozen
sorted-list Kahn loop did (``tests/support/kahn_oracle.py``), partial
orders of cyclic graphs included, on random edge lists with
multi-edges, self-loops and cycles.  On a cyclic graph it names the ids
that reach a cycle and are reached from one (a node on a cycle reaches
itself) — a subset of the oracle's stuck set, which also holds every id
merely downstream.  ``WorkflowSpec.from_json`` and ``Workflow`` give
the same verdict and name the same operators.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidWorkflow, WorkflowSpecError
from repro.relational import FieldType, Schema
from repro.workflow import LogicalOperator, Workflow
from repro.workflow.dag import topological_ids
from repro.workflow.spec import SPEC_VERSION, WorkflowSpec
from tests.support.kahn_oracle import kahn

SCHEMA = Schema.of(id=FieldType.INT)
MAX_NODES = 8


class _Node(LogicalOperator):
    """A box with enough ports for any generated edge list."""

    @property
    def num_input_ports(self):
        return MAX_NODES * MAX_NODES

    def output_schema(self, input_schemas):
        return SCHEMA

    def create_executor(self, worker_index=0):
        raise NotImplementedError


@st.composite
def graphs(draw):
    ids = [f"n{i}" for i in range(draw(st.integers(1, MAX_NODES)))]
    node = st.sampled_from(ids)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * len(ids)))
    return draw(st.permutations(ids)), edges


def _reach(ids, edges):
    """``reach[a]``: ids reachable from ``a`` by one or more edges."""
    reach = {node: set() for node in ids}
    for producer, consumer in edges:
        reach[producer].add(consumer)
    for via in ids:
        for node in ids:
            if via in reach[node]:
                reach[node] |= reach[via]
    return reach


def _named(ids, edges):
    reach = _reach(ids, edges)
    cyclic = {node for node in ids if node in reach[node]}
    return sorted(
        node
        for node in ids
        if any(node == c or node in reach[c] for c in cyclic)
        and any(node == c or c in reach[node] for c in cyclic)
    )


@settings(max_examples=400, deadline=None)
@given(graphs())
def test_the_order_function_matches_the_frozen_kahn_loop(graph):
    ids, edges = graph
    order, cycle = topological_ids(ids, edges)
    expected_order, stuck = kahn(ids, edges)
    assert order == expected_order
    assert bool(cycle) == bool(stuck) == (len(order) < len(ids))
    assert cycle == _named(ids, edges)
    assert set(cycle) <= set(stuck)


def _spec_doc(ids, edges):
    fed = {}
    links = []
    for producer, consumer in edges:
        port = fed[consumer] = fed.get(consumer, -1) + 1
        links.append({"from": producer, "to": consumer, "out": 0, "in": port})
    return {
        "spec": SPEC_VERSION,
        "name": "graph",
        "operators": [{"id": node, "type": "filter"} for node in ids],
        "links": links,
    }


def _workflow(ids, edges):
    wf = Workflow("graph")
    for node in ids:
        wf.add_operator(_Node(node))
    fed = {}
    for producer, consumer in edges:
        port = fed[consumer] = fed.get(consumer, -1) + 1
        wf.link(wf.operators[producer], wf.operators[consumer], input_port=port)
    return wf


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_spec_and_workflow_give_one_verdict(graph):
    ids, edges = graph
    order, cycle = topological_ids(ids, edges)
    wf = _workflow(ids, edges)
    if not cycle:
        WorkflowSpec.from_json(_spec_doc(ids, edges))
        assert [op.operator_id for op in wf.topological_order()] == order
        return
    named = f"cycle involving operators {cycle}"
    with pytest.raises(WorkflowSpecError) as spec_error:
        WorkflowSpec.from_json(_spec_doc(ids, edges))
    with pytest.raises(InvalidWorkflow) as graph_error:
        wf.topological_order()
    assert named in str(spec_error.value)
    assert named in str(graph_error.value)
