"""The task table: what a paper task is, stated once.

A row of :data:`TASKS` holds everything the layers above need to run
"task T under paradigm P at size N" without knowing T: the dataset
generator (whose own default seed is the task's seed; KGE's goes
through the shared cache), the two hand-written runners with each
one's spelling of the paper's parallelism knob, and the scale the job
bodies and the ``SEED_TIMINGS`` pins run at.  The experiments, the
``<task>/<paradigm>`` job bodies and the timing pins all enumerate
these rows; the runners themselves stay public and unwrapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.cluster import Cluster
from repro.datasets.fsqa import generate_fsqa
from repro.datasets.maccrobat import generate_maccrobat
from repro.datasets.wildfire import generate_wildfire_tweets
from repro.paradigm import check_paradigm
from repro.tasks.base import PARADIGM_SCRIPT, PARADIGM_WORKFLOW, TaskRun, fresh_cluster
from repro.tasks.dice import run_dice_script, run_dice_workflow
from repro.tasks.gotta import run_gotta_script, run_gotta_workflow
from repro.tasks.kge import KgeDataset, make_kge_dataset, run_kge_script, run_kge_workflow
from repro.tasks.wef import run_wef_script, run_wef_workflow

__all__ = ["KGE_LARGE", "KGE_SMALL", "TASKS", "PaperTask", "cached_kge_dataset"]

#: The paper's two KGE candidate-set sizes.
KGE_SMALL = 6800
KGE_LARGE = 68000


@lru_cache(maxsize=4)
def _kge_dataset(num_candidates: int, universe_size: int) -> KgeDataset:
    return make_kge_dataset(num_candidates, universe_size=universe_size)


def cached_kge_dataset(
    num_candidates: int, universe_size: int = KGE_LARGE
) -> KgeDataset:
    """Build (once) and reuse a KGE dataset.

    Runs never mutate the dataset, so sharing it across experiments and
    job bodies is safe and saves the ~2 s universe+model construction
    per call.  The store is keyed positionally, so every spelling of
    one ``(num_candidates, universe_size)`` shares an entry.
    """
    return _kge_dataset(num_candidates, universe_size)


cached_kge_dataset.cache_clear = _kge_dataset.cache_clear


@dataclass(frozen=True)
class PaperTask:
    """One of the paper's four tasks, under both paradigms."""

    name: str
    #: The data-science stage the paper files the task under.
    stage: str
    #: ``dataset(size, **options)`` — the task's seeded generator.
    dataset: Callable[..., Any]
    #: ``dataset(*pinned)`` is the scale job bodies and timing pins run at.
    pinned: Tuple[int, ...]
    #: paradigm -> (runner, keyword its parallelism knob goes by); the
    #: keyword is None where the implementation has no knob.
    sides: Mapping[str, Tuple[Callable[..., TaskRun], Optional[str]]]

    def run(
        self,
        paradigm: str,
        data: Any,
        workers: int = 1,
        cluster: Optional[Cluster] = None,
        **task_options: Any,
    ) -> TaskRun:
        """Run this task under ``paradigm`` on ``cluster`` — by default
        a fresh testbed — with ``workers``-way parallelism."""
        check_paradigm(paradigm)
        runner, knob = self.sides[paradigm]
        if knob is not None:
            task_options[knob] = workers
        elif workers != 1:
            raise ValueError(
                f"{self.name}/{paradigm} has no parallelism knob; "
                f"it cannot run with workers={workers}"
            )
        if cluster is None:
            cluster = fresh_cluster()
        return runner(cluster, data, **task_options)


#: The four tasks in paper order, by name.
TASKS: Dict[str, PaperTask] = {
    task.name: task
    for task in (
        PaperTask("dice", "data wrangling", generate_maccrobat, (4,),
                  {PARADIGM_WORKFLOW: (run_dice_workflow, "num_workers"),
                   PARADIGM_SCRIPT: (run_dice_script, "num_cpus")}),
        PaperTask("wef", "model training", generate_wildfire_tweets, (40,),
                  {PARADIGM_WORKFLOW: (run_wef_workflow, None),
                   PARADIGM_SCRIPT: (run_wef_script, "num_cpus")}),
        PaperTask("gotta", "one-step inference", generate_fsqa, (1,),
                  {PARADIGM_WORKFLOW: (run_gotta_workflow, "num_workers"),
                   PARADIGM_SCRIPT: (run_gotta_script, "num_cpus")}),
        PaperTask("kge", "multi-step inference", cached_kge_dataset, (300, 1000),
                  {PARADIGM_WORKFLOW: (run_kge_workflow, "num_workers"),
                   PARADIGM_SCRIPT: (run_kge_script, "num_cpus")}),
    )
}
