"""The workflow-spec CLI surfaces: ``compile`` and ``--workflow``.

Same contract as every other spec surface: good inputs produce the
report, bad inputs exit 2 with the grammar on stderr and never a
traceback.  ``--workflow`` additionally runs the spec through both
paradigms and must report identical rows.
"""

import json
from pathlib import Path

import pytest

from repro.cli import WORKFLOW_SPEC_HELP, main

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = REPO / "examples" / "workflows"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- compile -------------------------------------------------------------------


def test_compile_reports_param_bound_task_spec(capsys):
    code, out, err = run_cli(capsys, "compile", str(EXAMPLES / "dice.json"))
    assert code == 0
    assert "workflow 'dice'" in out
    assert "operators: 8" in out
    assert "params: ann_files, num_workers, text_files" in out
    assert "structural OK" in out


def test_compile_reports_both_paradigms_for_self_contained_spec(capsys):
    code, out, err = run_cli(capsys, "compile", str(EXAMPLES / "demo.json"))
    assert code == 0
    assert "workflow plan: 5 operators" in out
    assert "script plan: 7 tasks" in out
    assert "both paradigms compile" in out


@pytest.mark.parametrize(
    "filename",
    ["dice.json", "dice_relational.json", "gotta.json", "kge.json", "wef.json", "demo.json"],
)
def test_compile_accepts_every_committed_spec(capsys, filename):
    code, out, err = run_cli(capsys, "compile", str(EXAMPLES / filename))
    assert code == 0, err


def test_compile_without_file_prints_usage(capsys):
    code, out, err = run_cli(capsys, "compile")
    assert code == 2
    assert "usage: repro compile FILE" in err


def test_compile_missing_file_exits_2_with_grammar(capsys):
    code, out, err = run_cli(capsys, "compile", "/no/such/spec.json")
    assert code == 2
    assert "repro: compile:" in err
    assert WORKFLOW_SPEC_HELP in err
    assert "Traceback" not in err


def test_compile_bad_spec_exits_2_with_scoped_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "spec": "repro/workflow-spec@1",
                "name": "bad",
                "operators": [{"id": "x", "type": "no_such_type", "config": {}}],
                "links": [],
            }
        ),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "compile", str(bad))
    assert code == 2
    assert "unknown operator type 'no_such_type'" in err
    assert WORKFLOW_SPEC_HELP in err


def test_compile_dangling_link_exits_2_with_diagnostic(capsys, tmp_path):
    doc = json.loads((EXAMPLES / "demo.json").read_text(encoding="utf-8"))
    doc["links"][0]["from"] = "ghost"
    bad = tmp_path / "dangling.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "compile", str(bad))
    assert code == 2
    assert "ghost" in err
    assert "Traceback" not in err


def test_compile_cyclic_spec_exits_2_naming_only_the_cycle(capsys, tmp_path):
    doc = {
        "spec": "repro/workflow-spec@1",
        "name": "cyclic",
        "operators": [
            {"id": "a", "type": "filter"},
            {"id": "b", "type": "filter"},
            {"id": "out", "type": "sink"},
        ],
        "links": [
            {"from": "a", "to": "b"},
            {"from": "b", "to": "a"},
            {"from": "b", "to": "out"},
        ],
    }
    bad = tmp_path / "cyclic.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "compile", str(bad))
    assert code == 2
    assert "cycle involving operators ['a', 'b']" in err
    assert "Traceback" not in err


# -- --workflow ----------------------------------------------------------------


def test_workflow_flag_runs_both_paradigms_and_diffs_rows(capsys):
    code, out, err = run_cli(capsys, "--workflow", str(EXAMPLES / "demo.json"))
    assert code == 0
    assert "workflow paradigm:" in out
    assert "script paradigm:" in out
    assert "identical" in out
    assert "MISMATCH" not in out


def test_workflow_flag_runs_under_layer_flags_and_reaches_the_run_tail(
    capsys, tmp_path
):
    """``--workflow`` used to return before the layer flags were even
    parsed: no trace file, no summaries, nothing installed."""
    trace = tmp_path / "trace.json"
    code, out, err = run_cli(
        capsys, "--workflow", str(EXAMPLES / "demo.json"),
        "--trace", str(trace), "--faults", "seed=1,tasks=2", "--cache", "on",
    )
    assert (code, err) == (0, "")
    assert "-- identical" in out
    assert "rayx.task" in out  # the per-run breakdown
    assert "faults: " in out and "cache: 0 hits, " in out
    events = json.loads(trace.read_text(encoding="utf-8"))["traceEvents"]
    assert any(event.get("cat") == "workflow.operator" for event in events)


def test_workflow_flag_rejects_param_bound_specs(capsys):
    code, out, err = run_cli(capsys, "--workflow", str(EXAMPLES / "kge.json"))
    assert code == 2
    assert "repro: --workflow:" in err
    assert "self-contained" in err
    assert WORKFLOW_SPEC_HELP in err


def test_workflow_flag_missing_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "--workflow", "/no/such/spec.json")
    assert code == 2
    assert WORKFLOW_SPEC_HELP in err
    assert "Traceback" not in err
