"""Generated-workload scenarios: the paradigm gap per task family.

The paper measures four hand-written tasks; this extension asks how
the script-vs-workflow gap behaves on *generated* workloads whose
shapes the paper tasks don't reach: a streaming micro-batch variant
(``stream``), a Snakemake-style deep chain of >=30 tiny operators
(``smallsteps``) and a raster-tiling job hauling large pixel blobs
(``raster``).  Each family is a ``repro/workflow-spec@1`` document
from :mod:`repro.gen.families`, compiled to both paradigms from the
same bytes.

For every family the experiment runs both paradigms, asserts the
collected row multisets are identical (the correctness contract the
property suites enforce) and reports the two virtual elapsed times
plus their ratio.  The interesting structure is *where* the gap comes
from: at these scales the pipelined engine pays its larger startup
(4.5s + per-operator deploys vs the script runtime's 2s), so the
script paradigm wins overall — but the engine's compute phase overlaps
micro-batch arrival gaps that the script plan serializes, which is why
``stream``'s gap narrows as scale grows.  A handful of random DAGs
from :func:`repro.gen.generator.random_spec` ride along as a validity
canary: every seed must produce identical rows too.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ExperimentError
from repro.metrics import ExperimentReport
from repro.paradigm import diff_rows, run_both

__all__ = ["run_scenarios"]


def run_scenarios(
    scale: float = 1.0, seeds: Sequence[int] = (0, 1, 2)
) -> ExperimentReport:
    """Per-family paradigm gap on generated workloads (E11)."""
    # Local import keeps repro.gen dormant for every other experiment.
    from repro.gen import FAMILIES, family_spec

    report = ExperimentReport(
        "scenarios",
        "generated workloads (repro.gen): virtual elapsed per paradigm "
        f"across the three task families (scale {scale:g})",
        x_label="family",
    )
    for family in FAMILIES:
        workflow, script = runs = run_both(family_spec(family, seed=0, scale=scale))
        if workflow.rows != script.rows:
            raise ExperimentError(
                f"{family}: paradigms disagree on the result rows "
                f"({len(workflow.rows)} workflow vs "
                f"{len(script.rows)} script)"
            )
        for run in runs:
            report.add(run.paradigm, family, run.elapsed_s)
        gap = workflow.elapsed_s / script.elapsed_s
        report.add("workflow/script ratio", family, gap, unit="x")
        report.notes.append(
            f"{family}: {len(workflow.rows)} rows identical across "
            f"paradigms; gap {gap:.2f}x"
        )
    report.notes.append(
        "the workflow paradigm pays a larger fixed start (engine startup "
        "+ per-operator deploys) at these scales; the gap narrows as "
        "data volume amortizes it"
    )
    report.notes.append(_random_canary(seeds))
    return report


def _random_canary(seeds: Sequence[int]) -> str:
    """Run a few random DAGs through both paradigms; all must agree."""
    from repro.gen import random_spec

    for seed in seeds:
        for diff in diff_rows(*run_both(random_spec(seed))):
            if not diff.identical:
                raise ExperimentError(
                    f"random spec seed={seed}: paradigms disagree at "
                    f"sink {diff.sink_id!r}"
                )
    return (
        f"random-DAG canary: {len(list(seeds))} seeded specs produced "
        "identical row multisets under both paradigms"
    )
