"""Exactness pin for everything that orders, edits or routes a DAG.

Three corpora of plans: the six paper plans (captured as the engine's
``WorkflowResult.workflow``), forty random generator specs and the
three generator families.  For each plan the digest covers its
topological order, the script compiler's task list, and the plan's
virtual elapsed time and sink row multisets under both paradigms (the
workflow engine and ``ScriptPlan``).  The sha256 literals were recorded
before the graph's order, edit and routing code moved behind
``Workflow``, and re-recorded over the naive plans alone, on the code
that still had the logical optimizer, when that optimizer was deleted;
any change to a plan either engine builds or runs must reproduce them
to the bit.
"""

import hashlib

import pytest

from repro.cluster import build_cluster
from repro.datasets import generate_fsqa, generate_maccrobat, generate_wildfire_tweets
from repro.experiments.harness import cached_kge_dataset
from repro.gen import family_spec, random_spec
from repro.rayx.compile import ScriptPlan
from repro.sim import Environment
from repro.tasks import fresh_cluster
from repro.tasks.dice import run_dice_workflow
from repro.tasks.gotta import run_gotta_workflow
from repro.tasks.kge import run_kge_workflow
from repro.tasks.wef import run_wef_workflow
from repro.workflow import run_workflow
from repro.workflow.spec import WorkflowSpec, build_workflow

DIGESTS = {
    "paper": "a5b570a6030fa180db49258ba0568bee9024b25495b908d722f9307a74c8cee0",
    "random": "dc572088b1fe5f782592fcfdc08186d9b9f1c1791ec7662da14f09086c3bd73b",
    "families": "1487ef97514386d434e0b88c1df903428ff9ddfddeee7caa9655ead1bfbc629b",
}

TASK_MODULES = ("dice", "gotta", "kge", "wef")


def _tasks(plan):
    return [
        (t.label, t.operator_id, t.worker_index, t.upstream)
        for t in ScriptPlan(plan).tasks
    ]


def _tables(tables):
    return [(sink_id, tables[sink_id].multiset()) for sink_id in sorted(tables)]


def plan_lines(name, naive):
    lines = [name, repr([op.operator_id for op in naive.topological_order()])]
    lines.append(repr(_tasks(naive)))
    result = run_workflow(build_cluster(Environment()), naive)
    lines.append(repr((result.elapsed_s, _tables(result.results))))
    cluster = build_cluster(Environment())
    tables = ScriptPlan(naive).run(cluster=cluster)
    lines.append(repr((cluster.env.now, _tables(tables))))
    return lines


def paper_plans(monkeypatch):
    """The six naive paper plans, as the engine ran them."""
    import importlib

    captured = []
    for task in TASK_MODULES:
        module = importlib.import_module(f"repro.tasks.{task}.workflow")
        original = module.run_workflow

        def recording(cluster, workflow, *args, _run=original, **kwargs):
            result = _run(cluster, workflow, *args, **kwargs)
            captured.append(result.workflow)
            return result

        monkeypatch.setattr(module, "run_workflow", recording)
    reports = generate_maccrobat(num_docs=40, seed=7)
    paragraphs = generate_fsqa(num_paragraphs=1, seed=17)
    dataset = cached_kge_dataset(1500, universe_size=4000)
    tweets = generate_wildfire_tweets(40, seed=11)
    runs = {
        "dice": lambda cl: run_dice_workflow(cl, reports, num_workers=2),
        "dice_relational": lambda cl: run_dice_workflow(
            cl, reports, num_workers=2, style="relational"
        ),
        "gotta": lambda cl: run_gotta_workflow(cl, paragraphs, num_workers=2),
        "kge_python": lambda cl: run_kge_workflow(cl, dataset),
        "kge_scala": lambda cl: run_kge_workflow(
            cl, dataset, num_processing_ops=3, join_language="scala"
        ),
        "wef": lambda cl: run_wef_workflow(cl, tweets),
    }
    plans = []
    for case, run in runs.items():
        run(fresh_cluster())
        plans.append((case, captured.pop()))
    return plans


def spec_plans(docs):
    return [
        (name, build_workflow(WorkflowSpec.from_json(doc)))
        for name, doc in docs
    ]


def corpus(group, monkeypatch):
    if group == "paper":
        return paper_plans(monkeypatch)
    if group == "random":
        return spec_plans((f"seed={s}", random_spec(s)) for s in range(40))
    return spec_plans(
        (f, family_spec(f, 0, 1.0)) for f in ("stream", "smallsteps", "raster")
    )


@pytest.mark.parametrize("group", sorted(DIGESTS))
def test_every_plan_is_bit_identical(group, monkeypatch):
    lines = []
    for name, plan in corpus(group, monkeypatch):
        lines.extend(plan_lines(name, plan))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == DIGESTS[group]
