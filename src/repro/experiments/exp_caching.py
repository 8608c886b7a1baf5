"""Result-cache experiment: cold vs warm runs on both paradigms.

The paper re-runs every task from scratch for each measurement, so
both paradigms pay the full virtual cost every time.  This extension
asks what an engine-level memo — Ray's object-store reuse on the
script side, Texera's operator result cache on the workflow side —
would recover: with :mod:`repro.cache` installed, a *cold* run pays
exactly the seed cost while populating the lineage-keyed cache, and a
*warm* re-run of the identical pipeline replays every memoized
submission at lookup cost instead of compute cost.

Each of the four tasks runs under both paradigms, three ways:

1. **dormant** — default config; the seed baseline;
2. **cold** — cache installed but empty: must be bit-identical to the
   dormant run (misses charge nothing — this is asserted);
3. **warm** — same cache instance, fresh cluster: must be faster, must
   record hits, and must produce rows identical to the dormant run.

The report shows cold time, warm time and the speedup — the virtual
time an engine-level cache would hand back to an analyst iterating on
the *end* of a pipeline whose *start* has not changed.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.cache import ResultCache, cached
from repro.datasets import generate_fsqa, generate_maccrobat, generate_wildfire_tweets
from repro.errors import ExperimentError
from repro.experiments.harness import cached_kge_dataset
from repro.metrics import ExperimentReport
from repro.tasks import fresh_cluster
from repro.tasks.dice.script import run_dice_script
from repro.tasks.dice.workflow import run_dice_workflow
from repro.tasks.gotta.script import run_gotta_script
from repro.tasks.gotta.workflow import run_gotta_workflow
from repro.tasks.kge.script import run_kge_script
from repro.tasks.kge.workflow import run_kge_workflow
from repro.tasks.wef.script import run_wef_script
from repro.tasks.wef.workflow import run_wef_workflow

__all__ = ["run_caching"]


def run_caching(
    num_docs: int = 120,
    num_paragraphs: int = 4,
    num_candidates: int = 6800,
    universe_size: int = 68000,
    num_tweets: int = 120,
) -> ExperimentReport:
    """Cold-vs-warm cache cost on all four tasks, both paradigms.

    For every case the cold run must match the dormant run
    bit-identically, and the warm run must be faster, record cache
    hits and produce dormant-identical output — all four properties
    are asserted, not just reported.
    """
    report = ExperimentReport(
        "caching",
        "lineage-keyed result caching: a warm re-run of an unchanged "
        "pipeline replays memoized work at lookup cost",
        x_label="task/paradigm",
    )
    reports = generate_maccrobat(num_docs=num_docs, seed=7)
    paragraphs = generate_fsqa(num_paragraphs=num_paragraphs, seed=17)
    dataset = cached_kge_dataset(num_candidates, universe_size=universe_size)
    tweets = generate_wildfire_tweets(num_tweets, seed=11)

    cases: List[Tuple[str, Callable]] = [
        ("dice/script", lambda cl: run_dice_script(cl, reports, num_cpus=4)),
        ("dice/workflow", lambda cl: run_dice_workflow(cl, reports, num_workers=4)),
        ("gotta/script", lambda cl: run_gotta_script(cl, paragraphs, num_cpus=4)),
        (
            "gotta/workflow",
            lambda cl: run_gotta_workflow(cl, paragraphs, num_workers=4),
        ),
        ("kge/script", lambda cl: run_kge_script(cl, dataset, num_cpus=4)),
        ("kge/workflow", lambda cl: run_kge_workflow(cl, dataset)),
        ("wef/script", lambda cl: run_wef_script(cl, tweets, num_cpus=4)),
        ("wef/workflow", lambda cl: run_wef_workflow(cl, tweets)),
    ]
    for case, run_fn in cases:
        dormant = run_fn(fresh_cluster())
        cache = ResultCache("on")
        with cached(cache):
            cold = run_fn(fresh_cluster())
            warm = run_fn(fresh_cluster())
        if cold.elapsed_s != dormant.elapsed_s:
            raise ExperimentError(
                f"{case}: cold cached run took {cold.elapsed_s}s, dormant "
                f"took {dormant.elapsed_s}s — misses must charge nothing"
            )
        if not warm.elapsed_s < cold.elapsed_s:
            raise ExperimentError(
                f"{case}: warm run ({warm.elapsed_s}s) was not faster than "
                f"cold ({cold.elapsed_s}s) despite a populated cache"
            )
        if cache.hits == 0:
            raise ExperimentError(
                f"{case}: warm run recorded no cache hits — the lineage "
                "fingerprints of identical submissions diverged"
            )
        if warm.output.multiset() != dormant.output.multiset():
            raise ExperimentError(
                f"{case}: warm run produced different output than the "
                "dormant run — a cache hit replayed the wrong result"
            )
        report.add("cold", case, cold.elapsed_s)
        report.add("warm", case, warm.elapsed_s)
        report.add("speedup", case, cold.elapsed_s / warm.elapsed_s)
        report.notes.append(
            f"{case}: warm hit {cache.hits}x (cold missed {cache.misses}x), "
            f"{cache.hit_rate:.0%} overall hit rate, {len(cache)} entries "
            f"({cache.total_bytes} bytes); cold == dormant bit-identically"
        )
    return report
