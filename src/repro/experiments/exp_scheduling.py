"""Scheduling experiment: placement-policy comparison per paradigm.

The paper tunes parallelism through one knob per paradigm (Ray's
``num_cpus``, Texera's worker count) and leaves placement to each
system's default.  With placement extracted into :mod:`repro.sched`,
this experiment asks the follow-up question: for the two model-heavy
tasks (KGE's 375 MB and GOTTA's 1.59 GB model, Section IV-E), how much
of each paradigm's time is *placement-sensitive*?

Every registered policy runs the same four configurations — KGE and
GOTTA, script and workflow, four-way parallel — and the report lists
elapsed virtual time per policy side by side.  Placement affects only
where work runs, never what it computes, so every policy's output is
checked against the default policy's; a mismatch fails the experiment.

Expected shape: ``locality`` undercuts ``round_robin`` on the script
runs (tasks follow the model replica instead of pulling a copy to
every node), while workflow runs move far less because operator state
stays put once deployed.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.datasets import generate_fsqa
from repro.errors import ExperimentError
from repro.experiments.harness import cached_kge_dataset
from repro.metrics import ExperimentReport
from repro.sched import POLICIES, scheduling
from repro.tasks import fresh_cluster
from repro.tasks.gotta import run_gotta_script, run_gotta_workflow
from repro.tasks.kge import run_kge_script, run_kge_workflow

__all__ = ["run_scheduling"]


def run_scheduling(
    num_candidates: int = 6800,
    universe_size: int = 68000,
    num_paragraphs: int = 4,
    policies: Optional[Sequence[str]] = None,
) -> ExperimentReport:
    """Elapsed time per placement policy, KGE + GOTTA, both paradigms.

    ``policies`` defaults to the full catalogue; the first one listed
    provides the reference output the others are checked against.
    """
    policies = list(policies or POLICIES)
    report = ExperimentReport(
        "scheduling",
        "placement-policy comparison (repro.sched): elapsed virtual "
        f"seconds on KGE ({num_candidates} candidates) and GOTTA "
        f"({num_paragraphs} paragraphs), 4-way parallel",
        x_label="policy",
    )
    dataset = cached_kge_dataset(num_candidates, universe_size=universe_size)
    paragraphs = generate_fsqa(num_paragraphs=num_paragraphs, seed=17)

    cases = [
        (
            "kge/script",
            lambda: run_kge_script(fresh_cluster(), dataset, num_cpus=4),
        ),
        (
            "kge/workflow",
            lambda: run_kge_workflow(fresh_cluster(), dataset, num_workers=4),
        ),
        (
            "gotta/script",
            lambda: run_gotta_script(fresh_cluster(), paragraphs, num_cpus=4),
        ),
        (
            "gotta/workflow",
            lambda: run_gotta_workflow(fresh_cluster(), paragraphs, num_workers=4),
        ),
    ]
    for series, run_fn in cases:
        reference = None
        timings = {}
        for policy in policies:
            with scheduling(policy):
                run = run_fn()
            rows = run.output.multiset()
            if reference is None:
                reference = rows
            elif rows != reference:
                raise ExperimentError(
                    f"{series}: policy {policy!r} changed the task output — "
                    "placement must affect timing only"
                )
            timings[policy] = run.elapsed_s
            report.add(series, policy, run.elapsed_s)
        fastest = min(timings, key=timings.get)
        report.notes.append(
            f"{series}: outputs identical across {len(policies)} policies; "
            f"fastest {fastest} ({timings[fastest]:.2f}s vs "
            f"round_robin {timings.get('round_robin', timings[fastest]):.2f}s)"
        )
    return report
