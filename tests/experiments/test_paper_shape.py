"""The paper's qualitative results, asserted at paper scale.

Fig 12-14 and Table I are claims about *shape*: who wins, by how much,
and how the gap moves with dataset size and worker count.  Each test
runs one experiment at the paper's sizes (virtual time, deterministic)
and pins that shape; the ablations switch one modeled mechanism off
and show which result depends on it; the extensions cover the panels
the paper left out.  Reduced-scale plumbing checks live next door in
``test_experiments.py``.  The two KGE datasets are shared through
``cached_kge_dataset``, so the module costs ~35 s in total.
"""

import dataclasses

from repro.config import default_config
from repro.datasets import generate_fsqa, generate_maccrobat
from repro.experiments import (
    run_fig12a,
    run_fig12b,
    run_fig13a,
    run_fig13b,
    run_fig13c,
    run_fig13d,
    run_fig14a,
    run_fig14b,
    run_fig14c,
    run_table1,
)
from repro.tasks import PARADIGM_SCRIPT, TASKS, fresh_cluster
from repro.tasks.dice import run_dice_workflow
from repro.tasks.gotta import run_gotta_script, run_gotta_workflow
from repro.tasks.kge import make_kge_dataset, run_kge_workflow
from tests.support.wef_distributed import run_wef_distributed


def _by_x(report, series):
    return {row.x: row.measured for row in report.series(series)}


def _both(report):
    return _by_x(report, "script"), _by_x(report, "workflow")


# -- E1: modularity (Fig 12) -------------------------------------------------


def test_fig12a_lines_of_code():
    # Both paradigms land in the same order of magnitude, with DICE the
    # largest implementation on both sides (as in the paper's Fig 12a).
    script, workflow = _both(run_fig12a())
    assert max(script, key=script.get) == "dice"
    assert max(workflow, key=workflow.get) == "dice"
    for task in ("dice", "wef", "gotta", "kge"):
        assert script[task] > 0
        assert workflow[task] > 0


def test_fig12b_kge_operator_count():
    # Pipelining gain 1 -> 5 operators, diminishing at 6 (paper: 19.7%
    # faster at 5 operators, 0.95% slower again at 6).
    times = _by_x(run_fig12b(), "workflow")
    assert times[5] < times[1]
    assert (times[1] - times[5]) / times[1] > 0.05
    assert times[6] >= times[5]
    assert abs(times[6] - times[5]) / times[5] < 0.05


# -- E2: language efficiency (Table I) ---------------------------------------


def test_table1_scala_vs_python_operators():
    # Paper: Scala 28% faster at 6.8k, only ~1% faster at 68k.
    report = run_table1()
    scala = _by_x(report, "scala-operators")
    python = _by_x(report, "python-operators")
    small_gain = (python[6800] - scala[6800]) / scala[6800]
    large_gain = (python[68000] - scala[68000]) / scala[68000]
    assert scala[6800] < python[6800]
    assert small_gain > 0.10
    assert -0.02 < large_gain < 0.05
    assert large_gain < small_gain


# -- E3: dataset scaling (Fig 13) --------------------------------------------


def test_fig13a_dice_scaling():
    # Paper: workflow wins at every size; the gap widens with scale
    # (37% at 10 pairs -> 122% at 200 pairs).
    script, workflow = _both(run_fig13a())
    for size in script:
        assert workflow[size] < script[size]
    gap_small = script[10] / workflow[10]
    gap_large = script[200] / workflow[200]
    assert gap_large > gap_small
    assert gap_large > 1.8  # paper: 2.22x


def test_fig13b_wef_scaling():
    # Paper: both linear and within ~3% of each other.
    script, workflow = _both(run_fig13b())
    for size in script:
        assert abs(script[size] - workflow[size]) / script[size] < 0.06
    # Linearity: time per tweet roughly constant.
    slope_low = (script[300] - script[200]) / 100
    slope_high = (script[400] - script[300]) / 100
    assert abs(slope_low - slope_high) / slope_low < 0.25


def test_fig13c_kge_scaling():
    # Paper: script wins KGE at both scales (workflow 28-33% slower).
    script, workflow = _both(run_fig13c())
    for size in script:
        assert script[size] < workflow[size]
    assert 1.2 < workflow[6800] / script[6800] < 1.7  # paper 1.50
    assert 1.2 < workflow[68000] / script[68000] < 1.7  # paper 1.38


def test_fig13d_gotta_scaling():
    # Paper: workflow 2.5-3.1x faster at every size.
    script, workflow = _both(run_fig13d())
    for size in script:
        assert script[size] / workflow[size] > 2.0
    # Sub-linear script growth (fixed model/object-store costs).
    assert script[16] < 16 * script[1]


# -- E4: worker scaling (Fig 14) ---------------------------------------------


def test_fig14a_dice_workers():
    script, workflow = _both(run_fig14a())
    for count in (1, 2, 4):
        # Paper: Texera outperforms the script at every worker count.
        assert workflow[count] < script[count]
    # Both decrease with workers; the script closes part of the gap.
    assert script[4] < script[2] < script[1]
    assert workflow[4] < workflow[2] < workflow[1]
    assert script[4] / workflow[4] < script[1] / workflow[1]


def test_fig14b_gotta_workers():
    script, workflow = _both(run_fig14b())
    for count in (1, 2, 4):
        assert workflow[count] < script[count]
    assert script[4] < script[2] < script[1]
    assert workflow[4] < workflow[2] < workflow[1]
    # Paper: the script recovers ~70% of the relative difference.
    assert script[4] / workflow[4] < script[1] / workflow[1]


def test_fig14c_kge_workers():
    script, workflow = _both(run_fig14c())
    for count in (1, 2, 4):
        # Paper: the script consistently outperforms the workflow.
        assert script[count] < workflow[count]
    # Near-linear scaling on both sides (paper: "intuitive reductions").
    assert script[1] / script[4] > 2.5
    assert workflow[1] / workflow[4] > 2.5


# -- Ablations: one mechanism off, one result gone ---------------------------


def _workflow_config(**changes):
    config = default_config()
    return dataclasses.replace(
        config, workflow=dataclasses.replace(config.workflow, **changes)
    )


def test_dice_document_vs_relational_dag():
    """The paper-style per-document DAG avoids blocking joins.

    The relational DAG's two global hash joins gate probing on full
    upstream completion; the document style pipelines end to end.
    """
    reports = generate_maccrobat(num_docs=100, seed=7)
    document = run_dice_workflow(fresh_cluster(), reports, style="document")
    relational = run_dice_workflow(fresh_cluster(), reports, style="relational")
    assert document.elapsed_s < relational.elapsed_s


def test_kge_batch_size_pipelining_grain():
    """Channel batch size trades overhead against pipelining.

    Tiny batches multiply per-batch handling costs; huge batches
    coarsen the pipeline.  The default (64) sits near the flat bottom.
    """
    dataset = make_kge_dataset(4000, universe_size=4000)
    times = {}
    for batch_size in (4, 64, 2048):
        config = _workflow_config(default_batch_size=batch_size)
        times[batch_size] = run_kge_workflow(fresh_cluster(config), dataset).elapsed_s
    assert times[64] <= times[4]
    assert times[64] <= times[2048]


def test_gotta_framework_pinning_ablation():
    """Texera's unpinned PyTorch drives the GOTTA win.

    Pinning the workflow's framework to 1 core (Ray-style) removes
    most of the workflow's advantage.
    """
    paragraphs = generate_fsqa(num_paragraphs=4, seed=17)
    script = run_gotta_script(fresh_cluster(), paragraphs).elapsed_s
    unpinned = run_gotta_workflow(fresh_cluster(), paragraphs).elapsed_s
    pinned = run_gotta_workflow(
        fresh_cluster(_workflow_config(torch_cores_per_operator=1)), paragraphs
    ).elapsed_s
    assert unpinned < pinned  # pinning hurts
    # Pinned workflow loses most of the advantage over the script.
    assert (script / pinned) < 0.65 * (script / unpinned)


def test_table1_without_cross_language_bridge():
    """The per-tuple bridge cost erodes Scala's win.

    With the cross-language per-tuple cost zeroed, the Scala variant
    keeps (even grows) its advantage at scale — the opposite of
    Table I — showing the bridge term is what reproduces the collapse.
    """
    dataset = make_kge_dataset(6000, universe_size=6000)

    def scala_advantage(config):
        python = run_kge_workflow(
            fresh_cluster(config), dataset, num_processing_ops=3
        )
        scala = run_kge_workflow(
            fresh_cluster(config),
            dataset,
            num_processing_ops=3,
            join_language="scala",
        )
        return (python.elapsed_s - scala.elapsed_s) / scala.elapsed_s

    config = default_config()
    no_bridge = dataclasses.replace(
        config,
        serialization=dataclasses.replace(
            config.serialization, cross_language_per_tuple_s=0.0
        ),
    )
    assert scala_advantage(no_bridge) > scala_advantage(config)


# -- Extensions: the panels the paper left out -------------------------------


def test_ext_wef_distributed_workers():
    # X1: the panel the paper excluded, WEF trained data-parallel with
    # per-epoch model averaging, against the paper's sequential run.
    wef = TASKS["wef"]
    tweets = wef.dataset(100)
    sequential = wef.run(PARADIGM_SCRIPT, tweets).elapsed_s
    distributed = {
        count: run_wef_distributed(fresh_cluster(), tweets, num_cpus=count).elapsed_s
        for count in (1, 2, 4)
    }
    assert distributed[4] < distributed[2] < distributed[1]
    # Near-linear scaling of the compute-bound part.
    assert distributed[1] / distributed[4] > 2.5
    # One distributed worker ~ the sequential baseline (same math).
    assert abs(distributed[1] - sequential) / sequential < 0.1


def test_ext_dice_extended_scaling():
    # X2: DICE past the real 200-pair corpus.
    script, workflow = _both(run_fig13a(sizes=(200, 400)))
    # Linearity persists beyond the paper's range...
    assert 1.8 < script[400] / script[200] < 2.2
    # ...and the workflow's lead converges toward the marginal ratio.
    assert 1.9 < script[400] / workflow[400] < 2.6


def test_ext_kge_small_scale_workers():
    # X3: Fig 14c's worker sweep at the 6.8k scale.
    script, workflow = _both(run_fig14c(num_candidates=6800, universe_size=68000))
    # The script wins at every worker count at this scale...
    for count in (1, 2, 4):
        assert script[count] < workflow[count]
    # ...and its lead GROWS with workers: the workflow's fixed
    # table-install cost does not parallelize, so it looms larger as
    # the per-tuple work shrinks.
    assert (workflow[4] - script[4]) / script[4] > (
        workflow[1] - script[1]
    ) / script[1]
