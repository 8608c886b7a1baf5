"""Reproductions of every table and figure in the paper's evaluation.

:data:`EXPERIMENTS` is the one table of them: id, paper artifact, entry
point and the keyword arguments ``--quick`` runs it with.
:data:`ALL_EXPERIMENTS`, :data:`QUICK_EXPERIMENTS` and everything the
CLI lists or rejects are derived from it.  Each entry point returns an
:class:`repro.metrics.ExperimentReport` holding the measured values
side by side with the paper's, rendered by ``report.to_text()``.

"""

from functools import partial
from typing import Any, Callable, Dict, NamedTuple

from repro.experiments.exp_caching import run_caching
from repro.experiments.exp_elastic import run_elasticity
from repro.experiments.exp_fairshare import run_fairshare
from repro.experiments.exp_language import run_table1
from repro.experiments.exp_memory import run_memory
from repro.experiments.exp_modularity import run_fig12a, run_fig12b
from repro.experiments.exp_recovery import run_recovery
from repro.experiments.exp_scenarios import run_scenarios
from repro.experiments.exp_scheduling import run_scheduling
from repro.experiments.exp_scaling import (
    run_fig13a,
    run_fig13b,
    run_fig13c,
    run_fig13d,
)
from repro.experiments.exp_workers import run_fig14a, run_fig14b, run_fig14c
from repro.metrics import ExperimentReport


class Experiment(NamedTuple):
    """One row of :data:`EXPERIMENTS`."""

    id: str
    label: str
    artifact: str
    run: Callable[..., ExperimentReport]
    #: Reduced-scale keyword arguments (seconds instead of minutes).
    quick: Dict[str, Any]


EXPERIMENTS = (
    Experiment("fig12a", "E1a", "Fig 12a (lines of code)", run_fig12a, {}),
    Experiment("fig12b", "E1b", "Fig 12b (KGE time vs #operators)", run_fig12b,
               dict(num_candidates=1500, universe_size=4000)),
    Experiment("table1", "E2", "Table I (Scala vs Python operators)", run_table1,
               dict(sizes=(1500, 4000), universe_size=4000)),
    Experiment("fig13a", "E3a", "Fig 13a (DICE vs dataset size)", run_fig13a,
               dict(sizes=(10, 40))),
    Experiment("fig13b", "E3b", "Fig 13b (WEF vs dataset size)", run_fig13b,
               dict(sizes=(50, 100))),
    Experiment("fig13c", "E3c", "Fig 13c (KGE vs dataset size)", run_fig13c,
               dict(sizes=(1500, 4000), universe_size=4000)),
    Experiment("fig13d", "E3d", "Fig 13d (GOTTA vs dataset size)", run_fig13d,
               dict(sizes=(1, 4))),
    Experiment("fig14a", "E4a", "Fig 14a (DICE vs #workers)", run_fig14a,
               dict(num_docs=40)),
    Experiment("fig14b", "E4b", "Fig 14b (GOTTA vs #workers)", run_fig14b, {}),
    Experiment("fig14c", "E4c", "Fig 14c (KGE vs #workers)", run_fig14c,
               dict(num_candidates=4000, universe_size=4000)),
    Experiment("recovery", "E5", "Recovery under injected faults (extension)",
               run_recovery, dict(num_docs=40, num_paragraphs=1)),
    Experiment("scheduling", "E6", "Placement-policy comparison (extension)",
               run_scheduling,
               dict(num_candidates=1500, universe_size=4000, num_paragraphs=1)),
    Experiment("memory", "E7", "Memory pressure: spill vs die (extension)",
               run_memory,
               dict(num_docs=40, num_paragraphs=1, num_candidates=1500,
                    universe_size=4000, num_tweets=40)),
    Experiment("caching", "E8", "Result caching: cold vs warm (extension)",
               run_caching,
               dict(num_docs=40, num_paragraphs=1, num_candidates=1500,
                    universe_size=4000, num_tweets=40)),
    Experiment("fairshare", "E9", "Fair-share admission: FIFO vs DRF (ext.)",
               run_fairshare, dict(horizon_s=12.0, heavy_rate=14.0, light_rate=2.0)),
    Experiment("elasticity", "E10", "Elastic autoscaling: cost vs latency (ext.)",
               run_elasticity,
               dict(flood_s=6.0, tail_s=25.0, heavy_rate=12.0, light_rate=2.0)),
    Experiment("scenarios", "E11", "Generated-workload scenarios (extension)",
               run_scenarios, dict(scale=0.5, seeds=(0,))),
)

#: id -> entry point, taking that experiment's keyword arguments.
ALL_EXPERIMENTS = {exp.id: exp.run for exp in EXPERIMENTS}
#: id -> zero-argument reduced-scale variant (what ``--quick`` runs).
QUICK_EXPERIMENTS = {exp.id: partial(exp.run, **exp.quick) for exp in EXPERIMENTS}

__all__ = ["EXPERIMENTS", "ALL_EXPERIMENTS", "QUICK_EXPERIMENTS", "Experiment"]
__all__ += [exp.run.__name__ for exp in EXPERIMENTS]

__doc__ = (__doc__ or "") + "\n".join(
    f"{exp.label:<5}{exp.artifact:<45}:func:`{exp.run.__name__}`" for exp in EXPERIMENTS
)
