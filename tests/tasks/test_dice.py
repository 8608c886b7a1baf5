"""Integration tests for the DICE task (both paradigms vs oracle)."""

import pytest

from repro.datasets import generate_maccrobat
from repro.tasks import fresh_cluster
from repro.tasks.dice import (
    reference_dice,
    run_dice_script,
    run_dice_workflow,
)

REPORTS = generate_maccrobat(num_docs=12, seed=7)


@pytest.fixture(scope="module")
def oracle():
    return reference_dice(REPORTS).multiset()


def test_reference_has_expected_shape(oracle):
    assert oracle  # non-empty
    table = reference_dice(REPORTS)
    assert table.schema.names == [
        "doc_id",
        "event_key",
        "trigger_type",
        "trigger_text",
        "arg_role",
        "arg_text",
        "sentence_index",
        "sentence_text",
    ]


def test_filter_drops_modifier_events():
    table = reference_dice(REPORTS)
    assert "Modifier" not in set(table.column("trigger_type"))
    # ... but the raw annotations do contain Modifier-triggered events.
    raw_types = {
        e.trigger_type for r in REPORTS for e in r.annotations.events
    }
    assert "Modifier" in raw_types


def test_script_matches_oracle(oracle):
    run = run_dice_script(fresh_cluster(), REPORTS)
    assert run.output.multiset() == oracle
    assert run.paradigm == "script"
    assert run.elapsed_s > 0


def test_workflow_matches_oracle(oracle):
    run = run_dice_workflow(fresh_cluster(), REPORTS)
    assert run.output.multiset() == oracle
    assert run.paradigm == "workflow"


def test_relational_workflow_matches_oracle(oracle):
    run = run_dice_workflow(fresh_cluster(), REPORTS, style="relational")
    assert run.output.multiset() == oracle


def test_unknown_style_rejected():
    with pytest.raises(ValueError):
        run_dice_workflow(fresh_cluster(), REPORTS, style="nope")


def test_multiworker_script_matches_oracle(oracle):
    run = run_dice_script(fresh_cluster(), REPORTS, num_cpus=3)
    assert run.output.multiset() == oracle


def test_multiworker_workflow_matches_oracle(oracle):
    run = run_dice_workflow(fresh_cluster(), REPORTS, num_workers=2)
    assert run.output.multiset() == oracle


def test_workflow_beats_script_at_scale():
    """Figure 13a's headline: pipelining wins for DICE."""
    reports = generate_maccrobat(num_docs=40, seed=7)
    script = run_dice_script(fresh_cluster(), reports)
    workflow = run_dice_workflow(fresh_cluster(), reports)
    assert workflow.elapsed_s < script.elapsed_s


def test_more_workers_reduce_time_both_paradigms():
    reports = generate_maccrobat(num_docs=40, seed=7)
    script_1 = run_dice_script(fresh_cluster(), reports, num_cpus=1)
    script_4 = run_dice_script(fresh_cluster(), reports, num_cpus=4)
    assert script_4.elapsed_s < script_1.elapsed_s
    wf_1 = run_dice_workflow(fresh_cluster(), reports, num_workers=1)
    wf_4 = run_dice_workflow(fresh_cluster(), reports, num_workers=4)
    assert wf_4.elapsed_s < wf_1.elapsed_s


def test_document_style_faster_than_relational_style():
    """The paper-style per-document DAG avoids blocking joins."""
    reports = generate_maccrobat(num_docs=40, seed=7)
    document = run_dice_workflow(fresh_cluster(), reports, style="document")
    relational = run_dice_workflow(fresh_cluster(), reports, style="relational")
    assert document.elapsed_s < relational.elapsed_s


def test_deterministic_timing():
    a = run_dice_script(fresh_cluster(), REPORTS)
    b = run_dice_script(fresh_cluster(), REPORTS)
    assert a.elapsed_s == b.elapsed_s
