"""Experiment #4 (paper Section IV-F): number of workers.

Reproduces Figure 14's three panels — DICE (a), GOTTA (b), KGE (c) —
at 1, 2 and 4 workers.  WEF is excluded, as in the paper (it would
become a distributed-training task).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.experiments.harness import KGE_LARGE, paradigm_sweep
from repro.experiments.paper_values import FIG14_WORKERS
from repro.metrics import ExperimentReport
from repro.tasks import TASKS

__all__ = ["run_fig14a", "run_fig14b", "run_fig14c"]


def _workers(
    exp_id: str, task_name: str, scale: str, data: Any, workers: Optional[Sequence[int]]
) -> ExperimentReport:
    """One panel: both paradigms on one dataset at every worker count."""
    report = ExperimentReport(
        exp_id,
        f"{task_name.upper()} execution time vs #workers ({scale})",
        x_label="workers",
    )
    points = ((count, data, count) for count in workers or (1, 2, 4))
    return paradigm_sweep(report, TASKS[task_name], points, FIG14_WORKERS[task_name])


def run_fig14a(
    workers: Optional[Sequence[int]] = None, num_docs: int = 200
) -> ExperimentReport:
    """DICE at 200 file pairs, 1/2/4 workers."""
    reports = TASKS["dice"].dataset(num_docs)
    return _workers("fig14a", "dice", f"{num_docs} file pairs", reports, workers)


def run_fig14b(
    workers: Optional[Sequence[int]] = None, num_paragraphs: int = 4
) -> ExperimentReport:
    """GOTTA at 4 paragraphs, 1/2/4 workers."""
    paragraphs = TASKS["gotta"].dataset(num_paragraphs)
    return _workers(
        "fig14b", "gotta", f"{num_paragraphs} paragraphs", paragraphs, workers
    )


def run_fig14c(
    workers: Optional[Sequence[int]] = None,
    num_candidates: int = 68000,
    universe_size: int = KGE_LARGE,
) -> ExperimentReport:
    """KGE at 68k products, 1/2/4 workers."""
    dataset = TASKS["kge"].dataset(num_candidates, universe_size)
    return _workers("fig14c", "kge", f"{num_candidates} products", dataset, workers)
