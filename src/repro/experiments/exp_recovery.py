"""Recovery experiment: fault-injection cost per paradigm.

The paper compares how the two paradigms *report* failures (Section
III-A: cell-level stack traces versus operator-level messages in the
GUI); this experiment extends the comparison to how each paradigm
*recovers*.  The same seeded :class:`repro.faults.FaultSchedule` kinds
are applied to both engines running the same task:

* the script runtime answers with task retry + exponential backoff,
  replica failover and lineage reconstruction (Ray's mechanisms);
* the workflow engine answers with per-operator checkpoint/restart at
  epoch (batch) boundaries (Texera/Flink-style).

Each task runs clean and fault-injected; the faulted output is checked
against the clean output (recovery must not corrupt results), and the
report shows clean time, faulted time and the recovery overhead.  All
times are virtual and, for a fixed seed, bit-reproducible.
"""

from __future__ import annotations

from functools import partial

from repro.errors import FaultError
from repro.faults import FaultSchedule, faults_injected
from repro.metrics import ExperimentReport
from repro.tasks import TASKS

__all__ = ["run_recovery"]

#: (task, paradigm, workers, fault kinds) — see :func:`run_recovery`.
CASES = (
    ("dice", "script", 4, dict(tasks=2, nodes=1, links=1, replicas=1)),
    ("dice", "workflow", 1, dict(operators=3, links=1)),
    ("gotta", "script", 4, dict(tasks=1, nodes=1, replicas=2)),
    ("gotta", "workflow", 1, dict(operators=2, links=1)),
)


def run_recovery(
    num_docs: int = 120, num_paragraphs: int = 4, seed: int = 11
) -> ExperimentReport:
    """Recovery cost, script vs workflow, on DICE and GOTTA.

    The schedule horizon is scaled to each clean run's elapsed time so
    faults land while the run is actually in flight.  Script runs face
    task crashes, a node outage, link degradation and replica loss;
    workflow runs face operator crashes and link degradation (the
    engine pins instances, so node outages are a script-side concern —
    see ``docs/fault_tolerance.md``).
    """
    report = ExperimentReport(
        "recovery",
        f"recovery cost under injected faults (seed={seed}, "
        f"{num_docs} file pairs / {num_paragraphs} paragraphs)",
        x_label="task",
    )
    data = {
        "dice": TASKS["dice"].dataset(num_docs),
        "gotta": TASKS["gotta"].dataset(num_paragraphs),
    }
    for task, paradigm, workers, kinds in CASES:
        run_fn = partial(TASKS[task].run, paradigm, data[task], workers=workers)
        # One clean run doubles as the horizon probe (faults must land
        # while the run is in flight) and the baseline measurement.
        probe = run_fn()
        schedule = FaultSchedule.generate(
            seed=seed,
            horizon_s=probe.elapsed_s * 0.8,
            note=f"{task}/{paradigm}",
            **kinds,
        )
        with faults_injected(schedule) as injector:
            faulted = run_fn()
        if faulted.output.multiset() != probe.output.multiset():
            raise FaultError(
                f"{task}/{paradigm}: fault-injected run produced different "
                "output than the clean run — recovery corrupted the result"
            )
        report.add(f"{paradigm}-clean", task, probe.elapsed_s)
        report.add(f"{paradigm}-faulted", task, faulted.elapsed_s)
        report.add(
            f"{paradigm}-overhead", task, faulted.elapsed_s - probe.elapsed_s
        )
        report.notes.append(
            f"{task}/{paradigm}: {injector.injected} faults injected, "
            f"{injector.retries} recovery actions, {injector.skipped} "
            "skipped; output identical to clean run"
        )
    return report
