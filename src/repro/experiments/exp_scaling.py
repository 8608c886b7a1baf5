"""Experiment #3 (paper Section IV-E): scaling the dataset size.

Reproduces Figure 13's four panels — DICE (a), WEF (b), KGE (c) and
GOTTA (d) — each comparing the script and workflow paradigms as the
input grows.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Tuple

from repro.experiments.harness import KGE_LARGE, KGE_SMALL, paradigm_sweep
from repro.experiments.paper_values import FIG13_SCALING
from repro.metrics import ExperimentReport
from repro.tasks import TASKS

__all__ = ["run_fig13a", "run_fig13b", "run_fig13c", "run_fig13d"]


def _scaling(
    exp_id: str, task_name: str, x_label: str, datasets: Iterable[Tuple[int, Any]]
) -> ExperimentReport:
    """One panel: both paradigms, single worker, at every ``(size, data)``."""
    report = ExperimentReport(
        exp_id,
        f"{task_name.upper()} execution time vs dataset size",
        x_label=x_label,
    )
    points = ((size, data, 1) for size, data in datasets)
    return paradigm_sweep(report, TASKS[task_name], points, FIG13_SCALING[task_name])


def _prefixes(task_name: str, sizes: Sequence[int]) -> Iterable[Tuple[int, Any]]:
    """Each size as a prefix of the largest size's corpus."""
    corpus = TASKS[task_name].dataset(max(sizes))
    return ((size, corpus[:size]) for size in sizes)


def run_fig13a(sizes: Optional[Sequence[int]] = None) -> ExperimentReport:
    """DICE: 10-200 file pairs, a corpus generated per size."""
    generate = TASKS["dice"].dataset
    datasets = ((size, generate(size)) for size in sizes or (10, 50, 100, 200))
    return _scaling("fig13a", "dice", "file pairs", datasets)


def run_fig13b(sizes: Optional[Sequence[int]] = None) -> ExperimentReport:
    """WEF: 200-400 labeled tweets."""
    datasets = _prefixes("wef", tuple(sizes or (200, 300, 400)))
    return _scaling("fig13b", "wef", "tweets", datasets)


def run_fig13c(
    sizes: Optional[Sequence[int]] = None, universe_size: int = KGE_LARGE
) -> ExperimentReport:
    """KGE: 6.8k and 68k candidate products."""
    cached = TASKS["kge"].dataset
    datasets = (
        (size, cached(size, universe_size)) for size in sizes or (KGE_SMALL, KGE_LARGE)
    )
    return _scaling("fig13c", "kge", "products", datasets)


def run_fig13d(sizes: Optional[Sequence[int]] = None) -> ExperimentReport:
    """GOTTA: 1, 4 and 16 paragraphs."""
    datasets = _prefixes("gotta", tuple(sizes or (1, 4, 16)))
    return _scaling("fig13d", "gotta", "paragraphs", datasets)
