"""CLI surface of elasticity: ``repro elastic`` and ``--elastic SPEC``."""

from repro.cli import main
from repro.elastic.spec import ELASTIC_GRAMMAR


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bare_elastic_prints_dormant_default_and_grammar(capsys):
    code, out, err = run_cli(capsys, "elastic")
    assert code == 0
    assert "dormant" in out
    assert ELASTIC_GRAMMAR.help() in out
    assert err == ""


def test_elastic_spec_describes_the_policy(capsys):
    code, out, err = run_cli(capsys, "elastic", "on,min=2,max=6,shape=fast")
    assert code == 0
    assert out.startswith("elastic: on\n")
    assert "\n  min=2 " in out and "\n  max=6 " in out
    assert "\n  shape=fast " in out


def test_elastic_option_composes_with_jobs(capsys):
    code, out, err = run_cli(
        capsys,
        "jobs",
        "on,rate=30,horizon=3,cpus=2,duration=0.5",
        "--elastic",
        "on,min=1,max=6,provision=0.5,interval=0.25,idle=0.5,cooldown=0.5",
    )
    assert code == 0
    assert "elastic" in out
    assert "node-seconds" in out
    assert err == ""


def test_elastic_option_off_is_inert(capsys):
    code, out, err = run_cli(
        capsys, "jobs", "on,rate=20,horizon=2", "--elastic", "off"
    )
    assert code == 0
    assert "elastic " not in out  # no autoscaler summary line


def test_elasticity_experiment_runs_quick(capsys):
    code, out, err = run_cli(capsys, "elasticity", "--quick")
    assert code == 0
    assert "node-seconds" in out
    assert "static-4" in out and "elastic" in out
    assert "scale-ups" in out
