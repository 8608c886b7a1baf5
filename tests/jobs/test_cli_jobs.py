"""CLI surface of the job service: ``repro jobs`` and ``--jobs SPEC``."""

from repro.cli import main
from repro.jobs.spec import JOBS_GRAMMAR


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bare_jobs_prints_dormant_default_and_grammar(capsys):
    code, out, err = run_cli(capsys, "jobs")
    assert code == 0
    assert "dormant" in out
    assert JOBS_GRAMMAR.help() in out
    assert err == ""


def test_jobs_spec_describes_without_running_when_off(capsys):
    code, out, err = run_cli(capsys, "jobs", "off,rate=50")
    assert code == 0
    assert "dormant" in out
    assert "traffic:" not in out


def test_jobs_on_runs_traffic_and_summarizes(capsys):
    code, out, err = run_cli(
        capsys, "jobs", "on,rate=20,horizon=4,tenants=2,duration=0.3"
    )
    assert code == 0
    assert out.startswith("jobs: on\n")
    assert "traffic:" in out
    assert "peak queue depth" in out
    assert "tenant-0" in out
    assert err == ""


def test_jobs_traffic_output_is_deterministic(capsys):
    spec = "on,rate=20,horizon=4,seed=9"
    _, first, _ = run_cli(capsys, "jobs", spec)
    _, second, _ = run_cli(capsys, "jobs", spec)
    assert first == second


def test_jobs_option_routes_experiments_through_the_service(capsys):
    code, out, err = run_cli(capsys, "--jobs", "on", "fig12a", "--quick")
    assert code == 0
    assert "jobs: 1 of 1 completed through the job service" in out


def test_jobs_option_off_is_the_direct_path(capsys):
    code, out, err = run_cli(capsys, "--jobs", "off", "fig12a", "--quick")
    assert code == 0
    assert "job service" not in out


def test_fairshare_experiment_runs_quick(capsys):
    code, out, err = run_cli(capsys, "fairshare", "--quick")
    assert code == 0
    assert "fifo" in out and "drf" in out
    assert "light tenant p99 queue" in out
