"""Every bad spec exits 2 with the relevant grammar on stderr.

One matrix over the rows of ``repro.cli.SUBCOMMANDS`` that take a
run-time flag (``--faults``, ``--scheduler``, ``--mem``, ``--cache``,
``--jobs``, ``--elastic``) and their inspection subcommands: a typo'd
spec must never produce a traceback, a hang or a bare one-line error —
the user gets exit code 2 plus the spec grammar (or the policy
catalogue) so the fix is on screen.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.cache import current_cache
from repro.cli import FAULT_SPEC_HINT, SUBCOMMANDS, main
from repro.faults import current_injector
from repro.mem import current_memory_config

#: The table rows whose flag resolves a value before anything runs.
LAYERS = [sub for sub in SUBCOMMANDS.values() if sub.parse is not None]

#: Bad values per row, tried as ``--flag VALUE`` and as ``repro NAME
#: VALUE``.  The non-finite numbers used to escape as an OverflowError
#: traceback (``ram=inf``, ``1e400``), hang the traffic generator
#: (``horizon=nan``, ``rate=inf``) or print ``nan`` timestamps.
BAD_SPECS = {
    "faults": [
        "seed=banana",
        "bogus=1",
        "banana",
        "seed=1,horizon=nan,tasks=1",
        "seed=1,tasks=-1",
        "seed=1,horizon=-1",
        "seed=1,nodes=3,outage=0.1",
        "seed=1,nodes=1,outage=-1",
    ],
    "sched": ["banana"],
    "mem": ["banana", "ram=lots", "ram=inf", "spill=nan", "on,base=-1"],
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
        "on,body=banana,horizon=1",
    ],
    "elastic": ["banana", "min=lots", "shape=warp9", "interval=nan", "up=-inf"],
}
#: Malformed in every grammar: an unknown key, an empty spec and an
#: empty fragment.
for _specs in BAD_SPECS.values():
    _specs.extend(spec for spec in ("bogus=1", "", "on,,off") if spec not in _specs)

#: Healthy invocations: (argv, text expected on stdout).
GOOD_SPECS = [
    (("mem",), "dormant"),
    (("cache",), "dormant"),
    (("cache", "on,cap=1gib"), "cache: on"),
    (("sched",), "round_robin"),
    (("faults", "seed=7,tasks=1"), "seed"),
    (("jobs",), "dormant"),
    (("jobs", "off,rate=50"), "dormant"),
    (("elastic",), "dormant"),
    (("elastic", "on,min=2"), "elastic: on"),
]


#: What a layer flag may sit next to instead of experiment names: the
#: spec runner and the subcommands that execute something.
DEMO = Path(__file__).resolve().parents[2] / "examples" / "workflows" / "demo.json"
RUN_TARGETS = [("--workflow", str(DEMO)), ("gen", "count=1"), ("jobs", "on,horizon=2")]


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
    assert out == ""  # nothing ran
    assert option in err
    assert hint in err
    assert "Traceback" not in err


@pytest.mark.parametrize("target", RUN_TARGETS, ids=lambda target: target[0])
@pytest.mark.parametrize("sub", LAYERS, ids=lambda sub: sub.flag)
def test_bad_option_next_to_a_run_target_exits_2_before_it_runs(capsys, sub, target):
    """Used to be dropped unread: ``--workflow FILE --mem banana`` ran
    the file and exited 0."""
    option, spec = f"--{sub.flag}", BAD_SPECS[sub.name][0]
    code, out, err = run_cli(capsys, *target, option, spec)
    assert code == 2
    assert out == ""
    assert f"repro: {option}:" in err
    assert sub.help_text in err


def test_layer_flags_are_installed_while_a_subcommand_runs(capsys, monkeypatch):
    seen = {}

    def spy(spec):
        seen.update(
            cache=current_cache(),
            memory=current_memory_config(),
            injector=current_injector(),
        )
        return 0

    monkeypatch.setitem(SUBCOMMANDS, "gen", replace(SUBCOMMANDS["gen"], handler=spy))
    code, out, err = run_cli(
        capsys, "gen", "count=1",
        "--cache", "on", "--mem", "on,ram=2gib", "--faults", "seed=1,tasks=1",
    )
    assert (code, err) == (0, "")
    assert seen["cache"] is not None and seen["cache"] is not current_cache()
    assert seen["memory"].enabled
    assert seen["injector"].schedule.seed == 1
    assert current_memory_config() is None  # scopes closed on the way out


@pytest.mark.parametrize("sub", SUBCOMMANDS.values(), ids=lambda sub: sub.name)
def test_surplus_arguments_exit_2_with_usage(capsys, sub):
    code, out, err = run_cli(capsys, sub.name, "on", "extra")
    assert code == 2
    assert f"repro: {sub.name}: usage: {sub.usage}" in err


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
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "sub", [sub for sub in LAYERS if sub.arity != "none"], ids=lambda sub: sub.name
)
def test_a_bare_subcommand_reads_its_own_flag_as_its_spec(capsys, sub):
    """``repro mem --mem SPEC`` inspects SPEC; a bad one is the
    subcommand's error, not the option's."""
    code, out, err = run_cli(capsys, sub.name, f"--{sub.flag}", BAD_SPECS[sub.name][0])
    assert code == 2
    assert f"repro: {sub.name}:" in err
    assert f"--{sub.flag}:" not in err.splitlines()[0]


@pytest.mark.parametrize("spec", ["seed=1,nodes=3,outage=0.1", "seed=1,nodes=1,outage=-1"])
def test_fault_outage_below_the_floor_names_the_key(capsys, spec):
    """Used to print windows longer than the outage asked for, or to
    name a drawn duration instead of the key."""
    code, out, err = run_cli(capsys, "faults", spec)
    assert code == 2
    assert err.splitlines()[0] == (
        f"repro: faults: outage: must be >= 0.5 (the shortest window), "
        f"got {float(spec.rpartition('=')[2])}"
    )


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
