"""The ``repro gen`` CLI surface: generate, run, diff, emit, exit 2.

Same contract as every other spec surface: good specs produce the
report, bad specs exit 2 with the grammar on stderr and never a
traceback.  Emitted documents must be strict JSON that ``compile``
and ``--workflow`` read back.
"""

import json

import pytest

from repro.cli import GEN_SPEC_HELP, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bare_gen_prints_catalogue_and_grammar(capsys):
    code, out, err = run_cli(capsys, "gen")
    assert code == 0
    for family in ("stream", "smallsteps", "raster"):
        assert family in out
    assert "spec grammar" in out


def test_gen_runs_seeds_and_diffs_rows(capsys):
    code, out, err = run_cli(capsys, "gen", "count=2")
    assert code == 0, err
    assert "seed 0:" in out and "seed 1:" in out
    assert out.count("identical") == 2
    assert "MISMATCH" not in out


def test_gen_family_validate_only(capsys):
    code, out, err = run_cli(capsys, "gen", "family=smallsteps,run=off")
    assert code == 0, err
    assert "both paradigms compile" in out


def test_gen_emit_writes_strict_json_compile_reads_back(capsys, tmp_path):
    target = tmp_path / "spec.json"
    code, out, err = run_cli(capsys, "gen", f"family=raster,run=off,emit={target}")
    assert code == 0, err
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["spec"] == "repro/workflow-spec@1"
    code, out, err = run_cli(capsys, "compile", str(target))
    assert code == 0, err
    assert "both paradigms compile" in out


def test_gen_emit_count_appends_seed(capsys, tmp_path):
    target = tmp_path / "spec.json"
    code, out, err = run_cli(
        capsys, "gen", f"count=2,run=off,emit={target}"
    )
    assert code == 0, err
    assert (tmp_path / "spec-0.json").exists()
    assert (tmp_path / "spec-1.json").exists()


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ("family=nope", "unknown family"),
        ("count=0", "count"),
        ("depth=0", "depth"),
        ("bogus=1", "unknown key"),
        ("justaflag", "key=value"),
        ("fanout=2.0", "fan_out"),
        # Used to overflow (raster) or hang (stream, smallsteps).
        *((f"family={family},scale=1e300,run=off", "takes at most 64")
          for family in ("stream", "smallsteps", "raster")),
    ],
)
def test_bad_gen_specs_exit_2_with_grammar(capsys, spec, fragment):
    code, out, err = run_cli(capsys, "gen", spec)
    assert code == 2
    assert out == ""
    assert fragment in err
    assert GEN_SPEC_HELP.splitlines()[0] in err


def test_gen_emit_to_unwritable_path_exits_2(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "spec.json"
    code, out, err = run_cli(capsys, "gen", f"run=off,emit={target}")
    assert code == 2
    assert "cannot write" in err
