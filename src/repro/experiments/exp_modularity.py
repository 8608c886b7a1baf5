"""Experiment #1 (paper Section IV-C): modularity.

* Figure 12a — lines of code of each task implementation under each
  paradigm.  Measured over this repository's own ``script.py`` /
  ``workflow.py`` modules; the paper's counts (of their Jupyter and
  Texera implementations) ride along for comparison.
* Figure 12b — KGE execution time against the number of workflow
  operators the pipeline is split into (1-6), with the script time as
  the reference line.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.harness import KGE_LARGE, KGE_SMALL
from repro.experiments.paper_values import FIG12A_LOC, FIG12B_KGE_OPERATORS
from repro.metrics import ExperimentReport, count_module_loc
from repro.tasks import PARADIGM_SCRIPT, PARADIGM_WORKFLOW, TASKS
from repro.tasks.kge.workflow import STAGE_FUSIONS

__all__ = ["run_fig12a", "run_fig12b"]


def run_fig12a() -> ExperimentReport:
    """Reproduce Figure 12a: total lines of code per implementation.

    Each implementation is counted as its paradigm module plus the
    task's shared ``common.py`` (the task logic both paradigms wire
    up).  Note the DICE workflow also ships the relational ablation
    variant in the same module, which inflates its count relative to
    the paper's single Texera implementation.
    """
    report = ExperimentReport(
        "fig12a",
        "Lines of code per task implementation",
        x_label="task",
    )
    for name, task in TASKS.items():
        common = count_module_loc(f"repro.tasks.{name}.common")
        for paradigm in (PARADIGM_SCRIPT, PARADIGM_WORKFLOW):
            runner, _ = task.sides[paradigm]
            report.add(
                paradigm,
                name,
                count_module_loc(runner.__module__) + common,
                paper=FIG12A_LOC[name][paradigm],
                unit="loc",
            )
    report.notes.append(
        "measured = logical lines of this repository's implementations "
        "(paradigm module + shared common.py); paper = the authors' "
        "Jupyter/Texera implementations"
    )
    return report


def run_fig12b(
    num_candidates: int = KGE_SMALL,
    universe_size: int = KGE_LARGE,
    operator_counts: Optional[Sequence[int]] = None,
) -> ExperimentReport:
    """Reproduce Figure 12b: KGE time vs number of operators."""
    report = ExperimentReport(
        "fig12b",
        f"KGE execution time vs #operators ({num_candidates} products, 1 worker)",
        x_label="#operators",
    )
    kge = TASKS["kge"]
    dataset = kge.dataset(num_candidates, universe_size)
    for count in operator_counts or sorted(STAGE_FUSIONS):
        run = kge.run(PARADIGM_WORKFLOW, dataset, num_processing_ops=count)
        report.add(
            "workflow",
            count,
            run.elapsed_s,
            paper=FIG12B_KGE_OPERATORS.get(count),
        )
    script = kge.run(PARADIGM_SCRIPT, dataset)
    report.add("script (reference)", "-", script.elapsed_s, paper=90.69)
    return report
