"""Exactness pin for everything that orders, edits or routes a DAG.

Three groups of plan cells (``tests/support/cells.py``): the six paper
plans, forty random generator specs and the three generator families.
For each plan the digest covers its topological order, the script
compiler's task list, and the plan's virtual elapsed time and sink row
multisets under both paradigms (the workflow engine and
``ScriptPlan``).  The sha256 literals were recorded before the graph's
order, edit and routing code moved behind ``Workflow``, and re-recorded
over the naive plans alone, on the code that still had the logical
optimizer, when that optimizer was deleted; any change to a plan either
engine builds or runs must reproduce them to the bit.
"""

import hashlib

import pytest

from repro.rayx.compile import ScriptPlan
from tests.support.cells import group, run

DIGESTS = {
    "paper": "a5b570a6030fa180db49258ba0568bee9024b25495b908d722f9307a74c8cee0",
    "random": "dc572088b1fe5f782592fcfdc08186d9b9f1c1791ec7662da14f09086c3bd73b",
    "families": "1487ef97514386d434e0b88c1df903428ff9ddfddeee7caa9655ead1bfbc629b",
}


def plan_lines(cell):
    plan = cell.plan()
    tasks = [(t.label, t.operator_id, t.worker_index, t.upstream) for t in ScriptPlan(plan).tasks]
    lines = [cell.name, repr([op.operator_id for op in plan.topological_order()]), repr(tasks)]
    for paradigm in ("workflow", "script"):
        outcome = run(cell, paradigm)
        lines.append(repr((outcome.elapsed_s, list(outcome.sinks))))
    return lines


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_every_plan_is_bit_identical(name):
    lines = [line for cell in group(name).values() for line in plan_lines(cell)]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == DIGESTS[name]
