"""Every bad spec exits 2 with the relevant grammar on stderr.

One matrix over the rows of ``repro.cli.SUBCOMMANDS`` that take a
run-time flag (``--faults``, ``--scheduler``, ``--mem``, ``--cache``,
``--jobs``, ``--elastic``) and their inspection subcommands: a typo'd
spec must never produce a traceback, a hang or a bare one-line error —
the user gets exit code 2 plus the spec grammar (or the policy
catalogue) so the fix is on screen.
"""

import pytest

from repro.cli import FAULT_SPEC_HINT, SUBCOMMANDS, main

#: The table rows whose flag resolves a value before anything runs.
LAYERS = [sub for sub in SUBCOMMANDS.values() if sub.parse is not None]

#: Bad values per row, tried as ``--flag VALUE`` and as ``repro NAME
#: VALUE``.  The non-finite numbers used to escape as an OverflowError
#: traceback (``ram=inf``, ``1e400``), hang the traffic generator
#: (``horizon=nan``, ``rate=inf``) or print ``nan`` timestamps.
BAD_SPECS = {
    "faults": ["seed=banana", "bogus=1", "banana", "seed=1,horizon=nan,tasks=1"],
    "sched": ["banana"],
    "mem": ["banana", "ram=lots", "ram=inf", "spill=nan"],
    "cache": ["banana", "cap=lots", "cap=inf", "lookup=nan"],
    "jobs": [
        "banana",
        "rate=lots",
        "quota_ram=lots",
        "placement=banana",
        "policy=sjf",
        "ram=1e400",
        "on,horizon=nan",
        "on,rate=inf,horizon=1",
    ],
    "elastic": ["banana", "min=lots", "shape=warp9", "interval=nan", "up=-inf"],
}

#: Healthy invocations: (argv, text expected on stdout).
GOOD_SPECS = [
    (("mem",), "dormant"),
    (("cache",), "dormant"),
    (("cache", "on,cap=1gib"), "ON"),
    (("sched",), "round_robin"),
    (("faults", "seed=7,tasks=1"), "seed"),
    (("jobs",), "dormant"),
    (("jobs", "off,rate=50"), "dormant"),
    (("elastic",), "dormant"),
    (("elastic", "on,min=2"), "ON"),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_covers_every_row_of_the_cli_table():
    """A new layer fails here until it lists its typos and its bare run."""
    assert set(BAD_SPECS) == {sub.name for sub in LAYERS}
    bare = {argv[0] for argv, _ in GOOD_SPECS if len(argv) == 1}
    assert bare == {sub.name for sub in LAYERS if sub.arity != "required"}


# -- option errors ------------------------------------------------------------


@pytest.mark.parametrize(
    "option, spec, hint",
    [
        (f"--{sub.flag}", spec, sub.help_text)
        for sub in LAYERS
        for spec in BAD_SPECS[sub.name]
    ],
)
def test_bad_option_spec_exits_2_with_grammar(capsys, option, spec, hint):
    code, out, err = run_cli(capsys, option, spec, "fig13d", "--quick")
    assert code == 2
    assert option in err
    assert hint in err
    assert "Traceback" not in err


def test_unknown_scheduler_exits_2_with_catalogue(capsys):
    code, out, err = run_cli(capsys, "--scheduler", "banana", "fig13d")
    assert code == 2
    assert "banana" in err
    # the catalogue names the valid policies so the fix is on screen
    assert "round_robin" in err and "locality" in err


# -- subcommand errors --------------------------------------------------------


@pytest.mark.parametrize(
    "subcommand, spec, hint",
    [
        (sub.name, spec, sub.help_text)
        for sub in LAYERS
        if sub.arity != "none"
        for spec in BAD_SPECS[sub.name]
    ],
)
def test_bad_subcommand_spec_exits_2_with_grammar(capsys, subcommand, spec, hint):
    code, out, err = run_cli(capsys, subcommand, spec)
    assert code == 2
    assert f"repro: {subcommand}:" in err
    assert hint in err


def test_faults_json_file_with_bad_json_exits_2(tmp_path, capsys):
    """A fault schedule file holding invalid JSON is a spec error, not
    a traceback (regression: json.JSONDecodeError used to escape)."""
    path = tmp_path / "schedule.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "faults", str(path))
    assert code == 2
    assert "not valid JSON" in err
    assert FAULT_SPEC_HINT in err


def test_faults_missing_file_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--faults", str(tmp_path / "nope.json"), "fig13d")
    assert code == 2
    assert FAULT_SPEC_HINT in err


# -- healthy paths stay healthy ----------------------------------------------


@pytest.mark.parametrize("argv, expect", GOOD_SPECS)
def test_good_subcommand_specs_exit_0(capsys, argv, expect):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert expect in out
    assert err == ""


def test_unknown_experiment_exits_2_with_ids(capsys):
    code, out, err = run_cli(capsys, "bogus-experiment")
    assert code == 2
    assert "bogus-experiment" in err
    assert "caching" in err  # the catalogue lists valid ids
