"""The one list of named cells the matrix tests run, and how to run one.

A cell is a paper task at a stated scale, run by its two hand-written
runners, or a workflow plan (the six naive paper plans, ``random_spec``
seeds, the three generator families, each at a stated size), run by the
workflow engine and by the script compiler.  ``run(cell, paradigm)``
runs one on a fresh cluster under any layer slots and returns what a
law compares: its virtual elapsed time and each sink's row multiset.
"""

from contextlib import ExitStack
from functools import partial
from typing import Any, Callable, NamedTuple, Optional, Tuple

import pytest

from repro.cache import cached
from repro.config import CacheConfig, MemoryConfig, default_config
from repro.datasets import generate_fsqa, generate_maccrobat, generate_wildfire_tweets
from repro.elastic import elastic_enabled
from repro.faults import FaultSchedule, faults_injected
from repro.gen import family_spec, random_spec
from repro.mem import memory_managed
from repro.obs import NULL_TRACER, tracing
from repro.paradigm import PARADIGM_WORKFLOW, PARADIGMS, check_paradigm
from repro.rayx.compile import ScriptPlan
from repro.sched import scheduling
from repro.tasks import TASKS, PaperTask, fresh_cluster
from repro.tasks.dice.workflow import build_dice_workflow, build_dice_workflow_relational
from repro.tasks.gotta.common import GOTTA_COSTS, make_bart
from repro.tasks.gotta.workflow import build_gotta_workflow
from repro.tasks.kge.workflow import build_kge_workflow
from repro.tasks.table import cached_kge_dataset
from repro.tasks.wef.workflow import build_wef_workflow
from repro.workflow import Workflow, run_workflow
from repro.workflow.spec import WorkflowSpec, build_workflow


class Cell(NamedTuple):
    group: str
    name: str
    #: A paper task, run by its own runners on ``task.dataset(*size)`` ...
    task: Optional[PaperTask] = None
    size: Tuple[int, ...] = ()
    #: ... or a builder of a fresh plan, run by both engines.
    plan: Optional[Callable[[], Workflow]] = None

    def __str__(self):
        return f"{self.group}:{self.name}"


def _gotta_plan():
    # As ``run_gotta_workflow`` binds it: each worker loads BART once.
    models = default_config().models
    load_s = models.load_seconds(make_bart(models).payload_bytes())
    return build_gotta_workflow(generate_fsqa(num_paragraphs=1, seed=17), num_workers=2,
                                load_seconds=load_s + GOTTA_COSTS.worker_model_init_s)


def _spec_plan(make_doc, *args, **knobs):
    return build_workflow(WorkflowSpec.from_json(make_doc(*args, **knobs)))


_reports = partial(generate_maccrobat, num_docs=40, seed=7)
_kge = partial(cached_kge_dataset, 1500, universe_size=4000)

CELLS = (
    *(Cell("tasks", name, task, task.pinned) for name, task in TASKS.items()),
    Cell("tasks", "gotta@4", TASKS["gotta"], (4,)),  # the seed's one extra point
    Cell("paper", "dice", plan=lambda: build_dice_workflow(_reports(), num_workers=2)),
    Cell("paper", "dice_relational",
         plan=lambda: build_dice_workflow_relational(_reports(), num_workers=2)),
    Cell("paper", "gotta", plan=_gotta_plan),
    Cell("paper", "kge_python", plan=lambda: build_kge_workflow(_kge())),
    Cell("paper", "kge_scala", plan=lambda: build_kge_workflow(
        _kge(), num_processing_ops=3, join_language="scala")),
    Cell("paper", "wef", plan=lambda: build_wef_workflow(generate_wildfire_tweets(40, seed=11))),
    *(Cell("random", f"seed={seed}", plan=partial(
        _spec_plan, random_spec, seed, rows=12, depth=4)) for seed in range(40)),
    *(Cell("families", family, plan=partial(_spec_plan, family_spec, family, 0, 1.0))
      for family in ("stream", "smallsteps", "raster")),
)


def group(name):
    """The cells of one group, by name."""
    return {cell.name: cell for cell in CELLS if cell.group == name}


#: The task table's own cells: each paper task at its pinned scale.
PINNED = {name: cell for name, cell in group("tasks").items() if cell.size == cell.task.pinned}


def matrix(cells):
    """``cell, paradigm`` parameters, ids ``<cell name>-<paradigm>``."""
    return [pytest.param(cell, p, id=f"{cell.name}-{p}") for cell in cells for p in PARADIGMS]


#: Virtual timings recorded at the seed, before repro.obs existed, by
#: ``<tasks cell>/<paradigm>`` (a pinned cell's key names its job
#: body).  Exact float equality is intentional: the simulation is
#: deterministic, and any drift means a layer leaked time.
SEED_TIMINGS = {
    "dice/workflow": 8.091464697066668,
    "dice/script": 6.1191600006,
    "wef/workflow": 258.2124729179,
    "wef/script": 268.78335006426664,
    "gotta/workflow": 63.28371245803674,
    "gotta/script": 144.76202222480745,
    "kge/workflow": 14.958064386766669,
    "kge/script": 20.96539552413334,
    "gotta@4/script": 394.96291672400747,
}

#: Every install slot with its layer's dormant value.  Elastic is
#: installed *enabled*: direct runs build no job service, so no
#: autoscaler ever attaches.  ``repro.jobs`` has no slot (a service
#: takes its config explicitly).
DORMANT_INSTALLS = {
    "obs": (tracing, NULL_TRACER),
    "faults": (faults_injected, FaultSchedule.empty()),
    "sched": (scheduling, "round_robin"),
    "mem": (memory_managed, MemoryConfig()),
    "cache": (cached, CacheConfig()),
    "elastic": (elastic_enabled, "on,min=1,max=8,provision=3,interval=0.5"),
}


class Outcome(NamedTuple):
    elapsed_s: float
    #: ``(sink id, Table.multiset())`` for each sink, in id order.
    sinks: Tuple[Tuple[str, Any], ...]


def run(cell, paradigm, *, config=None, slots=()):
    """``cell`` under ``paradigm`` on a fresh cluster built from
    ``config``, with each ``(installer, value)`` of ``slots`` entered."""
    check_paradigm(paradigm)
    with ExitStack() as stack:
        for install, value in slots:
            stack.enter_context(install(value))
        cluster = fresh_cluster(config)
        if cell.task is not None:
            done = cell.task.run(paradigm, cell.task.dataset(*cell.size), cluster=cluster)
            return Outcome(done.elapsed_s, (("output", done.output.multiset()),))
        if paradigm == PARADIGM_WORKFLOW:
            done = run_workflow(cluster, cell.plan())
            elapsed_s, tables = done.elapsed_s, done.results
        else:
            tables = ScriptPlan(cell.plan()).run(cluster=cluster)
            elapsed_s = cluster.env.now
    return Outcome(elapsed_s, tuple((sink, tables[sink].multiset()) for sink in sorted(tables)))


def seed_timings(**options):
    """Each ``SEED_TIMINGS`` run's virtual elapsed time, by key, with
    ``run``'s keyword ``options``."""
    tasks = group("tasks")
    return {key: run(tasks[key.split("/")[0]], key.split("/")[1], **options).elapsed_s
            for key in SEED_TIMINGS}
