"""Count pins: storing rows whose payloads are cached is flat in N.

``ObjectStore.put`` / ``adopt`` size what they store with
``estimate_bytes``.  A list of rows used to cost one Python call per
value plus a full re-walk of every row's ``Schema``; the kernel now
adds each row's cached ``payload_bytes()`` and sizes the schema once
per run of same-schema rows, so the number of ``estimate_bytes`` calls
must not grow with the row count — counted with ``sys.setprofile``, no
wall clock — while the stored size stays the recursive walk's integer
(``tests/support/sizing_oracle.py``).
"""

import sys

import pytest

from repro.cluster import build_cluster, estimate_bytes
from repro.config import MemoryConfig
from repro.rayx import ObjectRef, RayxRuntime, compile_script_plan
from repro.relational import FieldType, Schema, Table, column_greater
from repro.sim import Environment
from repro.workflow import Workflow
from repro.workflow.operators import FilterOperator, SinkOperator, TableSource
from tests.support.sizing_oracle import walk_bytes

SCHEMA = Schema.of(id=FieldType.INT, text=FieldType.STRING, tokens=FieldType.ANY)
ROW_COUNTS = (100, 10_000)
MEMORY = [None, MemoryConfig(enabled=True)]


def sized_table(num_rows):
    """A table whose rows have all answered ``payload_bytes()`` once,
    and whose schema has been sized once (it is memoised by its fields)."""
    table = Table.from_rows(
        SCHEMA, [[i, f"row {i}", ["tok"] * (i % 4)] for i in range(num_rows)]
    )
    table.payload_bytes()
    estimate_bytes(SCHEMA)
    return table


def count_sizing_calls(run):
    """``run()``'s result and how often ``estimate_bytes`` was entered."""
    calls = 0
    # An outer profiler (a reachability run, say) keeps seeing every
    # call and is back in place afterwards.
    outer = sys.getprofile()

    def profile(frame, event, arg):
        nonlocal calls
        if outer is not None:
            outer(frame, event, arg)
        if event == "call" and frame.f_code is estimate_bytes.__code__:
            calls += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(outer)
    return result, calls


@pytest.mark.parametrize("memory", MEMORY, ids=["dormant", "mem-on"])
@pytest.mark.parametrize("store_method", ["put", "adopt"])
def test_storing_sized_rows_makes_a_flat_number_of_calls(store_method, memory):
    counts = set()
    for num_rows in ROW_COUNTS:
        rows = sized_table(num_rows).rows
        cluster = build_cluster(Environment(), memory=memory)
        store = RayxRuntime(cluster).store
        ref = ObjectRef(cluster.env, label="rows")
        process = getattr(store, store_method)(ref, rows, "worker-0")
        _, calls = count_sizing_calls(
            lambda: cluster.env.run(until=cluster.env.process(process))
        )
        counts.add(calls)
        assert store.nbytes_of(ref) == ref.nbytes == walk_bytes(rows)
    assert len(counts) == 1, f"estimate_bytes calls grew with the rows: {counts}"


@pytest.mark.parametrize("memory", MEMORY, ids=["dormant", "mem-on"])
def test_compiled_plan_stores_task_results_with_a_flat_number_of_calls(memory):
    """``rayx.compile``'s tasks hand lists of rows to ``put``."""
    counts = set()
    for num_rows in ROW_COUNTS:
        workflow = Workflow("sized")
        scan = workflow.add_operator(
            TableSource("scan", sized_table(num_rows), num_workers=2)
        )
        keep = workflow.add_operator(
            FilterOperator("keep", column_greater("id", 9), num_workers=2)
        )
        view = workflow.add_operator(SinkOperator("view"))
        workflow.link(scan, keep)
        workflow.link(keep, view)
        plan = compile_script_plan(workflow)

        cluster = build_cluster(Environment(), memory=memory)
        runtime = RayxRuntime(cluster, num_cpus=4)
        refs = []
        submit = runtime.submit

        def recording_submit(fn, *args, label=None):
            refs.append(submit(fn, *args, label=label))
            return refs[-1]

        runtime.submit = recording_submit
        tables, calls = count_sizing_calls(
            lambda: cluster.env.run(until=cluster.env.process(plan.driver(runtime)))
        )
        counts.add(calls)
        assert len(tables["view"]) == num_rows - 10
        assert [ref.label for ref in refs] == [task.label for task in plan.tasks]
        for ref in refs:
            assert runtime.store.nbytes_of(ref) == walk_bytes(ref.ready.value)
        runtime.shutdown()
    assert len(counts) == 1, f"estimate_bytes calls grew with the rows: {counts}"
