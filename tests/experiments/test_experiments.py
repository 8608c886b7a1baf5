"""Tests for the experiment harness at reduced scales.

Full paper-scale reproductions (and their qualitative-shape
assertions) live in ``test_paper_shape.py``; these tests exercise the
harness plumbing and the mechanisms at sizes that run in seconds.
"""

import inspect

import pytest

from repro.cli import QUICK_EXPERIMENTS, main
from repro.experiments import ALL_EXPERIMENTS, EXPERIMENTS
from repro.experiments.exp_language import run_table1
from repro.experiments.exp_modularity import run_fig12a, run_fig12b
from repro.experiments.exp_scaling import (
    run_fig13a,
    run_fig13b,
    run_fig13c,
    run_fig13d,
)
from repro.experiments.exp_workers import run_fig14a, run_fig14b
from repro.experiments.harness import KGE_LARGE, cached_kge_dataset
from repro.experiments.paper_values import (
    FIG12A_LOC,
    FIG13_SCALING,
    FIG14_WORKERS,
    TABLE1_LANGUAGE,
)


def test_paper_values_are_complete():
    assert set(FIG12A_LOC) == {"dice", "wef", "gotta", "kge"}
    assert set(FIG13_SCALING) == {"dice", "wef", "gotta", "kge"}
    assert set(FIG14_WORKERS) == {"dice", "gotta", "kge"}  # WEF excluded
    for size, entry in TABLE1_LANGUAGE.items():
        assert set(entry) == {"scala", "python"}


def test_cached_kge_dataset_is_shared():
    a = cached_kge_dataset(500, 2000)
    b = cached_kge_dataset(500, 2000)
    assert a is b
    # One entry per dataset, however the call is spelled.
    assert cached_kge_dataset(500, universe_size=2000) is a
    assert cached_kge_dataset(num_candidates=500, universe_size=2000) is a
    defaulted = cached_kge_dataset(500)
    assert cached_kge_dataset(500, KGE_LARGE) is defaulted
    assert cached_kge_dataset(500, universe_size=KGE_LARGE) is defaulted
    cached_kge_dataset.cache_clear()
    assert cached_kge_dataset(500, 2000) is not a


def test_registries_list_the_table_in_order():
    ids = [exp.id for exp in EXPERIMENTS]
    assert len(ids) == len(set(ids)) == 17
    assert list(ALL_EXPERIMENTS) == list(QUICK_EXPERIMENTS) == ids
    for exp in EXPERIMENTS:
        assert ALL_EXPERIMENTS[exp.id] is exp.run


@pytest.mark.parametrize("exp", EXPERIMENTS, ids=lambda exp: exp.id)
def test_quick_keywords_bind_against_the_entry_point(exp):
    """A typo in a ``quick`` dict fails here, not inside the full CLI run."""
    inspect.signature(exp.run).bind_partial(**exp.quick)


def test_fig12a_reports_all_tasks():
    report = run_fig12a()
    assert len(report.rows) == 8
    assert {row.series for row in report.rows} == {"script", "workflow"}
    assert all(row.unit == "loc" for row in report.rows)
    assert all(row.paper is not None for row in report.rows)


def test_fig12b_reduced_scale():
    report = run_fig12b(num_candidates=800, universe_size=2000)
    times = {row.x: row.measured for row in report.series("workflow")}
    assert set(times) == {1, 2, 3, 4, 5, 6}
    assert times[5] < times[1]
    reference = report.series("script (reference)")
    assert len(reference) == 1


def test_table1_reduced_scale():
    report = run_table1(sizes=(400, 2000), universe_size=2000)
    scala = {row.x: row.measured for row in report.series("scala-operators")}
    python = {row.x: row.measured for row in report.series("python-operators")}
    small_gain = (python[400] - scala[400]) / scala[400]
    large_gain = (python[2000] - scala[2000]) / scala[2000]
    assert large_gain < small_gain  # the vanishing advantage


def test_fig13a_reduced_scale():
    report = run_fig13a(sizes=(10, 30))
    script = {row.x: row.measured for row in report.series("script")}
    workflow = {row.x: row.measured for row in report.series("workflow")}
    assert workflow[30] < script[30]


def test_fig13b_reduced_scale():
    report = run_fig13b(sizes=(30, 60))
    script = {row.x: row.measured for row in report.series("script")}
    workflow = {row.x: row.measured for row in report.series("workflow")}
    for size in (30, 60):
        assert abs(script[size] - workflow[size]) / script[size] < 0.1


def test_fig13c_reduced_scale():
    report = run_fig13c(sizes=(2000,), universe_size=2000)
    (script,) = report.measured_series("script")
    (workflow,) = report.measured_series("workflow")
    assert script < workflow


def test_fig13d_reduced_scale():
    report = run_fig13d(sizes=(1, 2))
    script = {row.x: row.measured for row in report.series("script")}
    workflow = {row.x: row.measured for row in report.series("workflow")}
    assert workflow[2] < script[2]


def test_fig14a_reduced_scale():
    report = run_fig14a(workers=(1, 4), num_docs=20)
    script = {row.x: row.measured for row in report.series("script")}
    assert script[4] < script[1]


def test_fig14b_reduced_scale():
    report = run_fig14b(workers=(1, 2), num_paragraphs=2)
    workflow = {row.x: row.measured for row in report.series("workflow")}
    assert workflow[2] < workflow[1]


def test_reports_carry_paper_values_at_paper_scales():
    report = run_fig13a(sizes=(10,))
    for row in report.rows:
        assert row.paper is not None
        assert row.relative_error is not None


@pytest.mark.parametrize(
    "experiment_id", ["recovery", "scheduling", "memory", "caching", "scenarios"]
)
def test_self_asserting_extension_experiment_quick(experiment_id):
    """These experiments raise ``ExperimentError``/``FaultError`` on a
    broken invariant (output differs from the clean run, the dormant
    run survives the RAM clamp, a cold cache charges time, paradigms
    disagree on rows), so completing is the check.  ``fairshare`` and
    ``elasticity`` run through the CLI in ``tests/{jobs,elastic}``."""
    report = QUICK_EXPERIMENTS[experiment_id]()
    assert report.experiment_id == experiment_id
    assert report.rows and report.notes
    for row in report.rows:
        if row.series.endswith("overhead"):  # recovery / spilling cost
            assert row.measured >= 0.0, row


@pytest.mark.parametrize(
    "experiment_id, flag", [("memory", "--mem"), ("elasticity", "--elastic")]
)
def test_an_experiment_that_sets_its_own_layer_ignores_the_flag(capsys, experiment_id, flag):
    """Each run names its policy as the explicit argument, which beats
    the installed one.  ``memory --mem on`` used to crash (the installed
    policy rescued the dormant run it expects to die) and ``elasticity
    --elastic on`` autoscaled its static baseline."""
    assert main([experiment_id, "--quick"]) == 0
    bare = capsys.readouterr().out
    assert main([experiment_id, "--quick", flag, "on"]) == 0
    assert capsys.readouterr().out == bare
