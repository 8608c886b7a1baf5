"""The paradigm seam: one way to run a spec, one definition of "same rows".

``repro.paradigm`` is what ``--workflow``, ``repro gen``,
``run_family`` and E11 execute specs through, so its numbers are the
CLI's numbers — and one disagreeing spec exercises the failing side of
the oracle on every surface at once (``MISMATCH`` / exit 1 / the E11
``ExperimentError``), which no test reached before.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster import build_cluster
from repro.errors import ExperimentError
from repro.experiments.exp_scenarios import run_scenarios
from repro.paradigm import PARADIGMS, SinkDiff, diff_rows, run_both, run_spec
from repro.relational import FieldType, Schema, Table
from repro.sim import Environment

REPO = Path(__file__).resolve().parents[1]
DEMO = REPO / "examples" / "workflows" / "demo.json"


def demo_doc():
    return json.loads(DEMO.read_text(encoding="utf-8"))


@pytest.fixture
def disagreeing_doc():
    """``limit`` after a 2-worker stage keeps whichever rows reach it
    first: pipelined arrival order under the engine, concatenated task
    outputs under the script plan.  (Why ``limit`` is not in the gen
    palette.)"""
    doc = demo_doc()
    doc["name"] = "disagree"
    doc["operators"][2] = {"id": "rank", "type": "limit", "config": {"limit": 2}}
    return doc


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- the seam -----------------------------------------------------------------


def test_run_both_reproduces_what_the_workflow_flag_prints():
    workflow, script = run_both(demo_doc())
    assert (workflow.name, workflow.paradigm, script.paradigm) == (
        "demo", "workflow", "script",
    )
    assert f"{workflow.elapsed_s:.3f} {script.elapsed_s:.3f}" == "5.110 2.022"
    assert (workflow.units, script.units) == (7, 7)
    assert diff_rows(workflow, script) == [SinkDiff("view-results", 5, 5, True)]
    assert workflow.rows == script.rows and len(workflow.rows) == 5


def test_unknown_paradigm_is_rejected():
    with pytest.raises(ValueError, match="unknown paradigm 'notebook'"):
        run_spec(demo_doc(), "notebook")


@pytest.mark.parametrize("paradigm", PARADIGMS)
def test_a_passed_cluster_is_used_and_its_clock_advanced(paradigm):
    cluster = build_cluster(Environment())
    run = run_spec(demo_doc(), paradigm, cluster=cluster)
    assert cluster.env.now == run.elapsed_s > 0
    assert run == run_spec(demo_doc(), paradigm)


def test_multiset_is_order_free_and_total_where_raw_values_are_not():
    schema = Schema.of(key=FieldType.ANY, score=FieldType.FLOAT)
    values = [[None, 0.5], [3, 0.25], ["three", 1.0], [3, 0.25]]
    table = Table.from_rows(schema, values)
    assert table.multiset() == Table.from_rows(schema, values[::-1]).multiset()
    assert table.multiset().count(("3", "0.25")) == 2
    assert table.multiset() != Table.from_rows(schema, values[:3]).multiset()
    with pytest.raises(TypeError):
        sorted(tuple(row.values) for row in table)


# -- the failing side of the oracle -------------------------------------------


def test_diff_rows_reports_the_disagreeing_sink_with_both_counts(disagreeing_doc):
    workflow, script = run_both(disagreeing_doc)
    assert diff_rows(workflow, script) == [SinkDiff("view-results", 2, 2, False)]
    full = run_spec(demo_doc(), "script")
    assert diff_rows(full, script) == [SinkDiff("view-results", 5, 2, False)]


def test_workflow_flag_prints_mismatch_and_exits_1(capsys, tmp_path, disagreeing_doc):
    path = tmp_path / "disagree.json"
    path.write_text(json.dumps(disagreeing_doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "--workflow", str(path))
    assert code == 1
    assert "2 rows (workflow) vs 2 rows (script) -- MISMATCH" in out
    assert f"repro: --workflow: paradigms disagree on {path}" in err


def test_gen_exits_1_when_a_seed_disagrees(capsys, monkeypatch, disagreeing_doc):
    monkeypatch.setattr("repro.gen.generate_spec", lambda config: disagreeing_doc)
    code, out, err = run_cli(capsys, "gen", "count=2")
    assert code == 1
    assert out.count("2 rows MISMATCH") == 2
    assert "repro: gen: paradigms disagree on 2 of 2 seeds" in err


def test_scenarios_refuses_a_family_whose_paradigms_disagree(
    monkeypatch, disagreeing_doc
):
    monkeypatch.setattr(
        "repro.gen.family_spec", lambda name, seed, scale: disagreeing_doc
    )
    with pytest.raises(ExperimentError, match=r"stream: .*2 workflow vs 2 script"):
        run_scenarios(scale=0.5, seeds=(0,))


def test_scenarios_canary_raises_on_a_disagreeing_random_spec(
    monkeypatch, disagreeing_doc
):
    monkeypatch.setattr("repro.gen.random_spec", lambda seed: disagreeing_doc)
    with pytest.raises(ExperimentError, match="seed=4: .*'view-results'"):
        run_scenarios(scale=0.5, seeds=(4,))


# -- what importing the seam costs --------------------------------------------


def test_on_demand_types_resolve_and_the_seam_loads_no_task_or_gen_package():
    """A fresh interpreter: the registry finds the four on-demand types
    by itself, and neither the seam nor the job service pulls in
    ``repro.gen`` or a task package."""
    script = (
        "import sys\n"
        "import repro.paradigm, repro.jobs\n"
        "loaded = [m for m in sys.modules\n"
        "          if m.startswith(('repro.gen', 'repro.tasks'))]\n"
        "assert not loaded, loaded\n"
        "from repro.workflow.spec import operator_factory, operator_types\n"
        "for name in ('kge_stage', 'wef_ensemble_train',\n"
        "             'micro_batch_source', 'raster_source'):\n"
        "    assert name in operator_types()\n"
        "    operator_factory(name)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
