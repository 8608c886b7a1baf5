"""The task table states each paper task once and adds nothing to it."""

import re

import pytest

from repro.jobs.bodies import TASK_BODIES
from repro.paradigm import PARADIGMS, run_spec
from repro.tasks import TASKS, fresh_cluster
from repro.tasks.dice import run_dice_script, run_dice_workflow
from repro.tasks.gotta import run_gotta_script, run_gotta_workflow
from repro.tasks.kge import run_kge_script, run_kge_workflow
from repro.tasks.wef import run_wef_script, run_wef_workflow
from tests.support.cells import PINNED, matrix

#: The plain entry points the rows must wrap, spelled out independently.
DIRECT = {
    ("dice", "script"): run_dice_script,
    ("dice", "workflow"): run_dice_workflow,
    ("wef", "script"): run_wef_script,
    ("wef", "workflow"): run_wef_workflow,
    ("gotta", "script"): run_gotta_script,
    ("gotta", "workflow"): run_gotta_workflow,
    ("kge", "script"): run_kge_script,
    ("kge", "workflow"): run_kge_workflow,
}


def test_table_is_the_four_tasks_in_paper_order_under_both_paradigms():
    assert list(TASKS) == ["dice", "wef", "gotta", "kge"]
    for name, task in TASKS.items():
        assert task.name == name
        assert set(task.sides) == set(PARADIGMS)
    assert {(name, paradigm) for name in PINNED for paradigm in PARADIGMS} == set(DIRECT)


def test_job_bodies_are_the_table_cells():
    # repro.jobs spells the names out so importing it stays light.
    assert sorted(TASK_BODIES) == sorted(f"{name}/{p}" for name, p in DIRECT)


@pytest.mark.parametrize("cell, paradigm", matrix(PINNED.values()))
def test_run_adds_nothing_to_the_direct_call(cell, paradigm):
    task = cell.task
    data = task.dataset(*cell.size)
    direct = DIRECT[task.name, paradigm](fresh_cluster(), data)
    run = task.run(paradigm, data)
    assert (run.task, run.paradigm) == (task.name, paradigm)
    assert run.elapsed_s == direct.elapsed_s
    assert run.output.rows == direct.output.rows
    assert run.num_workers == direct.num_workers == 1


@pytest.mark.parametrize("cell, paradigm", matrix(PINNED.values()))
def test_workers_reach_the_paradigms_own_knob(cell, paradigm):
    task = cell.task
    data = task.dataset(*cell.size)
    _, knob = task.sides[paradigm]
    if knob is None:
        with pytest.raises(ValueError, match="no parallelism knob"):
            task.run(paradigm, data, workers=2)
        return
    direct = DIRECT[task.name, paradigm](fresh_cluster(), data, **{knob: 2})
    run = task.run(paradigm, data, workers=2)
    assert run.num_workers == direct.num_workers == 2
    assert run.elapsed_s == direct.elapsed_s


def test_only_wefs_workflow_lacks_a_knob():
    knobless = [
        (name, paradigm)
        for name, task in TASKS.items()
        for paradigm in PARADIGMS
        if task.sides[paradigm][1] is None
    ]
    assert knobless == [("wef", "workflow")]


def test_run_uses_the_cluster_it_is_given_and_passes_task_options_through():
    kge = TASKS["kge"]
    data = kge.dataset(*kge.pinned)
    cluster = fresh_cluster()
    run = kge.run("workflow", data, cluster=cluster, num_processing_ops=3)
    direct = run_kge_workflow(fresh_cluster(), data, num_processing_ops=3)
    assert cluster.env.now > 0.0
    assert run.elapsed_s == direct.elapsed_s


def test_unknown_paradigm_is_rejected_in_the_seams_words():
    with pytest.raises(ValueError) as seam:
        run_spec({}, "notebook")
    dice = TASKS["dice"]
    with pytest.raises(ValueError, match=re.escape(str(seam.value))):
        dice.run("notebook", dice.dataset(*dice.pinned))
