"""Integration tests for the GOTTA task (both paradigms vs oracle)."""

import pytest

from repro.datasets import generate_fsqa
from repro.tasks import fresh_cluster
from repro.tasks.gotta import (
    exact_match_of,
    reference_gotta,
    run_gotta_script,
    run_gotta_workflow,
)

PARAGRAPHS = generate_fsqa(num_paragraphs=4, seed=17)


@pytest.fixture(scope="module")
def oracle():
    return reference_gotta(PARAGRAPHS).multiset()


def test_reference_exact_match_is_perfect():
    assert exact_match_of(reference_gotta(PARAGRAPHS)) == 1.0


def test_script_matches_oracle(oracle):
    run = run_gotta_script(fresh_cluster(), PARAGRAPHS)
    assert run.output.multiset() == oracle
    assert run.extras["exact_match"] == 1.0


def test_workflow_matches_oracle(oracle):
    run = run_gotta_workflow(fresh_cluster(), PARAGRAPHS)
    assert run.output.multiset() == oracle
    assert run.extras["exact_match"] == 1.0


def test_items_include_questions_and_cloze():
    run = run_gotta_workflow(fresh_cluster(), PARAGRAPHS)
    kinds = set(run.output.column("kind"))
    assert kinds == {"question", "cloze"}
    # 4 paragraphs x 4 facts x (question + cloze)
    assert len(run.output) == 4 * 4 * 2


def test_workflow_beats_script():
    """Figure 13d: the workflow side wins GOTTA decisively."""
    script = run_gotta_script(fresh_cluster(), PARAGRAPHS)
    workflow = run_gotta_workflow(fresh_cluster(), PARAGRAPHS)
    assert workflow.elapsed_s < script.elapsed_s
    assert script.elapsed_s / workflow.elapsed_s > 1.5


def test_script_gap_narrows_with_workers():
    """Figure 14b: more workers shrink the script's relative deficit."""
    script_1 = run_gotta_script(fresh_cluster(), PARAGRAPHS, num_cpus=1)
    workflow_1 = run_gotta_workflow(fresh_cluster(), PARAGRAPHS, num_workers=1)
    script_4 = run_gotta_script(fresh_cluster(), PARAGRAPHS, num_cpus=4)
    workflow_4 = run_gotta_workflow(fresh_cluster(), PARAGRAPHS, num_workers=4)
    gap_1 = script_1.elapsed_s / workflow_1.elapsed_s
    gap_4 = script_4.elapsed_s / workflow_4.elapsed_s
    assert gap_4 < gap_1
    assert workflow_4.elapsed_s < workflow_1.elapsed_s
    assert script_4.elapsed_s < script_1.elapsed_s


def test_multiworker_outputs_unchanged(oracle):
    script = run_gotta_script(fresh_cluster(), PARAGRAPHS, num_cpus=4)
    workflow = run_gotta_workflow(fresh_cluster(), PARAGRAPHS, num_workers=4)
    assert script.output.multiset() == oracle
    assert workflow.output.multiset() == oracle


def test_sublinear_growth_from_model_fixed_costs():
    """The '"roughly logarithmic" curve: marginal cost < average cost."""
    one = run_gotta_script(fresh_cluster(), PARAGRAPHS[:1])
    four = run_gotta_script(fresh_cluster(), PARAGRAPHS[:4])
    assert four.elapsed_s < 4 * one.elapsed_s
