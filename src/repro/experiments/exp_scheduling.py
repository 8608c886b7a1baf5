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

from itertools import product
from typing import Optional, Sequence

from repro.errors import ExperimentError
from repro.metrics import ExperimentReport
from repro.sched import POLICIES, scheduling
from repro.tasks import PARADIGM_SCRIPT, PARADIGM_WORKFLOW, TASKS

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
    data = {
        "kge": TASKS["kge"].dataset(num_candidates, universe_size),
        "gotta": TASKS["gotta"].dataset(num_paragraphs),
    }
    for task, paradigm in product(data, (PARADIGM_SCRIPT, PARADIGM_WORKFLOW)):
        series = f"{task}/{paradigm}"
        reference = None
        timings = {}
        for policy in policies:
            with scheduling(policy):
                run = TASKS[task].run(paradigm, data[task], workers=4)
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
