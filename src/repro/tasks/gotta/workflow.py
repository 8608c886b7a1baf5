"""GOTTA under the workflow paradigm (Texera substitute).

An item source streams (prompt, context) rows into a model operator
that loads BART once per worker instance — disk read plus in-process
installation, the model "loaded ... and distributed through the
network to each worker" of the paper's Section IV-E — and runs the
forward pass *unpinned* (Texera does not restrict PyTorch's cores),
which is the other half of the workflow side's GOTTA advantage.

The DAG itself is a spec: the canonical JSON lives in
``examples/workflows/gotta.json`` and :func:`gotta_spec_dict` below
regenerates the identical document (pinned by a unit test).  Runtime
data — the item table, worker count and the measured model-load cost —
enters through ``$param`` bindings.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.cluster import Cluster
from repro.datasets.fsqa import FsqaParagraph
from repro.relational import Tuple
from repro.tasks.base import PARADIGM_WORKFLOW, TaskRun, run_trace_of
from repro.tasks.gotta.common import (
    GOTTA_COSTS,
    PREDICTION_SCHEMA,
    exact_match_of,
    items_table,
    make_bart,
)
from repro.workflow import Workflow, run_workflow
from repro.workflow.spec import (
    SPEC_VERSION,
    callable_form,
    load_workflow_json,
    param_form,
    schema_form,
)

__all__ = ["build_gotta_workflow", "gotta_spec_dict", "run_gotta_workflow"]


def _apply(model, row: Tuple):
    prediction = model.generate(row["prompt"], row["context"])
    correct = prediction.strip().lower() == row["gold"].strip().lower()
    return [
        row["paragraph_id"],
        row["kind"],
        row["prompt"],
        row["gold"],
        prediction,
        correct,
    ]


def _generation_flops(model, row: Tuple) -> float:
    return model.generation_flops(row["prompt"], row["context"])


def gotta_spec_dict() -> Dict[str, Any]:
    """The Figure 6 inference DAG as a spec document."""
    return {
        "spec": SPEC_VERSION,
        "name": "gotta",
        "operators": [
            {
                "id": "qa-items",
                "type": "table_source",
                "config": {
                    "table": param_form("items"),
                    "output_batch_size": 8,
                },
            },
            # Model load cost per worker instance: disk read + installation.
            {
                "id": "bart-generate",
                "type": "model_apply",
                "config": {
                    "output_schema": schema_form(PREDICTION_SCHEMA),
                    "loader": callable_form(make_bart),
                    "apply_fn": callable_form(_apply),
                    "flops_fn": callable_form(_generation_flops),
                    "load_seconds": param_form("load_seconds"),
                    "num_workers": param_form("num_workers"),
                    "per_tuple_work_s": GOTTA_COSTS.prepare_per_item_s,
                    "output_batch_size": 8,
                },
            },
            {
                "id": "predictions",
                "type": "sink",
                "config": {"per_tuple_work_s": GOTTA_COSTS.evaluate_per_item_s},
            },
        ],
        "links": [
            {"from": "qa-items", "to": "bart-generate", "out": 0, "in": 0},
            {"from": "bart-generate", "to": "predictions", "out": 0, "in": 0},
        ],
    }


def build_gotta_workflow(
    paragraphs: Sequence[FsqaParagraph],
    num_workers: int = 1,
    load_seconds: float = None,
) -> Workflow:
    """Compile the GOTTA spec with runtime bindings."""
    doc = gotta_spec_dict()
    return load_workflow_json(
        doc,
        {
            "items": items_table(paragraphs),
            "num_workers": num_workers,
            "load_seconds": load_seconds,
        },
    )


def run_gotta_workflow(
    cluster: Cluster, paragraphs: Sequence[FsqaParagraph], num_workers: int = 1
) -> TaskRun:
    """Run the workflow-paradigm GOTTA task; returns its :class:`TaskRun`."""
    models_config = cluster.config.models
    load_seconds = (
        models_config.load_seconds(make_bart(models_config).payload_bytes())
        + GOTTA_COSTS.worker_model_init_s
    )
    wf = build_gotta_workflow(
        paragraphs, num_workers=num_workers, load_seconds=load_seconds
    )
    cluster.tracer.label_run("gotta/workflow")
    result = run_workflow(cluster, wf)
    output = result.table("predictions")
    return TaskRun(
        task="gotta",
        paradigm=PARADIGM_WORKFLOW,
        output=output,
        elapsed_s=result.elapsed_s,
        num_workers=num_workers,
        trace=run_trace_of(cluster),
        extras={
            "num_paragraphs": len(paragraphs),
            "exact_match": exact_match_of(output),
            "num_operators": wf.num_operators,
        },
    )
