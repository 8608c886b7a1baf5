"""The sorted-list Kahn sort, frozen as the oracle.

A verbatim copy of the loop ``WorkflowSpec._check_acyclic`` ran before
``repro.workflow.dag.topological_ids`` became the one order function,
lifted to take ``(ids, edges)``: the ready list is re-sorted after every
step and its head popped, so the smallest ready id goes first.  On a
cyclic graph ``order`` stops short and ``stuck`` is every id still
holding an in-edge — the cycle *and* everything downstream of it.
"""


def kahn(ids, edges):
    indegree = {node: 0 for node in ids}
    outgoing = {node: [] for node in ids}
    for producer, consumer in edges:
        indegree[consumer] += 1
        outgoing[producer].append(consumer)
    ready = sorted(node for node, deg in indegree.items() if deg == 0)
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for consumer in outgoing[node]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
        ready.sort()
    stuck = sorted(node for node, deg in indegree.items() if deg > 0)
    return order, stuck
