"""Tests for the ``trace`` CLI subcommand and ``--trace`` output."""

import json

from repro.cli import main
from repro.obs import NULL_TRACER, current_tracer


def test_trace_subcommand_prints_breakdown(capsys):
    assert main(["trace", "fig13a", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "fig13a" in out  # the experiment report itself
    assert "wall" in out and "virtual" in out  # the breakdown follows
    assert "dice/script" in out
    assert "dice/workflow" in out


def test_trace_flag_writes_chrome_json(tmp_path, capsys):
    target = tmp_path / "out.json"
    assert main(["trace", "fig13a", "--quick", "--trace", str(target)]) == 0
    out = capsys.readouterr().out
    assert str(target) in out
    document = json.loads(target.read_text(encoding="utf-8"))
    events = document["traceEvents"]
    assert any(e.get("ph") == "X" for e in events)
    categories = {e.get("cat") for e in events if e.get("ph") == "X"}
    assert any(c.startswith("rayx") for c in categories)
    assert any(c.startswith("workflow") for c in categories)


def test_trace_flag_without_subcommand_also_traces(tmp_path):
    target = tmp_path / "out.json"
    assert main(["fig13a", "--quick", "--trace", str(target)]) == 0
    assert target.exists()


def test_trace_subcommand_rejects_unknown_ids(capsys):
    assert main(["trace", "nope", "--quick"]) == 2
    assert "nope" in capsys.readouterr().err


def test_trace_flag_fails_fast_on_missing_directory(capsys):
    # Before any experiment runs: a bad target must not cost a full run.
    assert main(["fig13a", "--quick", "--trace", "/no-such-dir/out.json"]) == 2
    assert "--trace" in capsys.readouterr().err


def test_cli_uninstalls_tracer_afterwards(tmp_path):
    main(["trace", "fig13a", "--quick"])
    assert current_tracer() is NULL_TRACER


def test_traced_run_keeps_the_exit_code(capsys):
    """Regression: the traced tail of ``main`` ended in ``return 0``, so a
    failed ``--jobs`` run exited 1 untraced but 0 under ``trace``."""
    argv = ["fig13d", "--quick", "--jobs", "on,cpus=999"]
    assert main(argv) == 1
    untraced = capsys.readouterr().err
    assert main(["trace"] + argv) == 1
    assert capsys.readouterr().err == untraced
    assert "exceeds every node" in untraced
