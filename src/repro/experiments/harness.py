"""Shared plumbing for the experiment reproductions."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.metrics import ExperimentReport
from repro.tasks import PARADIGM_SCRIPT, PARADIGM_WORKFLOW, PaperTask
from repro.tasks.table import KGE_LARGE, KGE_SMALL, cached_kge_dataset

__all__ = ["KGE_LARGE", "KGE_SMALL", "cached_kge_dataset", "paradigm_sweep"]


def paradigm_sweep(
    report: ExperimentReport,
    task: PaperTask,
    points: Iterable[Tuple[Any, Any, int]],
    paper: Optional[Dict[str, Dict[Any, float]]] = None,
) -> ExperimentReport:
    """The paper's measurement loop: at every ``(x, data, workers)``
    point run ``task`` as a script, then as a workflow, each on a fresh
    cluster, and add one row per run (series = paradigm) next to the
    paper's value for that ``x``, if it reports one."""
    for x, data, workers in points:
        for paradigm in (PARADIGM_SCRIPT, PARADIGM_WORKFLOW):
            run = task.run(paradigm, data, workers=workers)
            published = paper[paradigm].get(x) if paper else None
            report.add(paradigm, x, run.elapsed_s, published)
    return report
