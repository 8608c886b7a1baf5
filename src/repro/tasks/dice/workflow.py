"""DICE under the workflow paradigm (Texera substitute).

A faithful rendering of Figure 4 as an operator DAG: annotation and
text files are processed by separate branches, events are filtered and
split on "has arguments", the argument subset is joined with entities,
rejoined (union) with the held-out subset, and everything is linked to
its sentence by a doc-level join plus containment filter.

The stage cost constants are the same ones the script pays
(:class:`repro.tasks.dice.common.DiceCosts`); the workflow's advantage
in Figure 13a comes purely from pipelined execution.

Both DAG variants are *specs*: the canonical JSON documents live in
``examples/workflows/dice.json`` / ``dice_relational.json`` and this
module is a thin wrapper that loads them with the runtime bindings
(the parsed reports and the worker count).  The ``*_spec_dict``
generators below produce the identical documents — tests pin file ==
generator, so the JSON cannot drift from the Python-side schemas and
cost constants.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.cluster import Cluster
from repro.datasets.maccrobat import CaseReport
from repro.relational import FieldType, Schema, Tuple
from repro.storage.textio import split_sentences
from repro.tasks.base import PARADIGM_WORKFLOW, TaskRun, run_trace_of
from repro.tasks.dice.common import (
    DICE_COSTS,
    ENTITY_SCHEMA,
    EVENT_SCHEMA,
    OUTPUT_SCHEMA,
    SENTENCE_SCHEMA,
    entity_rows,
    event_rows,
    file_pairs_table,
    has_argument,
    is_clinical_event,
    link_stage,
    resolve_stage,
    sentence_rows,
)
from repro.workflow import Workflow
from repro.workflow import run_workflow
from repro.workflow.spec import (
    SPEC_VERSION,
    callable_form,
    load_workflow_json,
    param_form,
    schema_form,
    udf_predicate_form,
)

__all__ = [
    "build_dice_workflow",
    "build_dice_workflow_relational",
    "dice_spec_dict",
    "dice_relational_spec_dict",
    "run_dice_workflow",
]

#: Events with their trigger entity resolved.
TRIGGERED_SCHEMA = Schema.of(
    doc_id=FieldType.STRING,
    event_key=FieldType.STRING,
    trigger_type=FieldType.STRING,
    trigger_text=FieldType.STRING,
    trigger_start=FieldType.INT,
    trigger_end=FieldType.INT,
    arg_role=FieldType.STRING,
    arg_key=FieldType.STRING,
)

#: Both branches normalized, ready for sentence linking.
LINKED_SCHEMA = Schema.of(
    doc_id=FieldType.STRING,
    event_key=FieldType.STRING,
    trigger_type=FieldType.STRING,
    trigger_text=FieldType.STRING,
    trigger_start=FieldType.INT,
    trigger_end=FieldType.INT,
    arg_role=FieldType.STRING,
    arg_text=FieldType.STRING,
)


def _to_triggered(row: Tuple):
    return [
        row["doc_id"],
        row["event_key"],
        row["trigger_type"],
        row["text"],
        row["start"],
        row["end"],
        row["arg_role"],
        row["arg_key"],
    ]


def _arg_to_linked(row: Tuple):
    return [
        row["doc_id"],
        row["event_key"],
        row["trigger_type"],
        row["trigger_text"],
        row["trigger_start"],
        row["trigger_end"],
        row["arg_role"],
        row["text"],  # resolved argument entity text
    ]


def _noarg_to_linked(row: Tuple):
    return [
        row["doc_id"],
        row["event_key"],
        row["trigger_type"],
        row["trigger_text"],
        row["trigger_start"],
        row["trigger_end"],
        row["arg_role"],
        None,
    ]


def _contained(row: Tuple) -> bool:
    return (
        row["sentence_start"] <= row["trigger_start"]
        and row["trigger_end"] <= row["sentence_end"]
    )


def _not_has_argument(row: Tuple) -> bool:
    return not has_argument(row)


def _to_output(row: Tuple):
    return [
        row["doc_id"],
        row["event_key"],
        row["trigger_type"],
        row["trigger_text"],
        row["arg_role"],
        row["arg_text"],
        row["sentence_index"],
        row["sentence_text"],
    ]


#: Document bundles flowing through the default (paper-style) DAG.
PAIR_BUNDLE_SCHEMA = Schema.of(
    doc_id=FieldType.STRING,
    annotations=FieldType.ANY,
    text=FieldType.ANY,
)
PARSED_BUNDLE_SCHEMA = Schema.of(
    doc_id=FieldType.STRING,
    entities=FieldType.ANY,  # dict: entity_key -> ENTITY row
    events=FieldType.ANY,  # list of EVENT rows
    text=FieldType.ANY,
)
SPLIT_BUNDLE_SCHEMA = Schema.of(
    doc_id=FieldType.STRING,
    entities=FieldType.ANY,
    events=FieldType.ANY,
    sentences=FieldType.ANY,
)
RESOLVED_BUNDLE_SCHEMA = Schema.of(
    doc_id=FieldType.STRING,
    resolved=FieldType.ANY,
    sentences=FieldType.ANY,
)


# -- bundle-stage UDFs (spec-addressable; formerly inline lambdas) ------------


def _parse_bundle(row: Tuple):
    return [
        row["doc_id"],
        {e[1]: e for e in entity_rows(row["doc_id"], row["content_right"])},
        event_rows(row["doc_id"], row["content_right"]),
        row["content"],
    ]


def _split_bundle(row: Tuple):
    return [
        row["doc_id"],
        row["entities"],
        row["events"],
        split_sentences(row["doc_id"], row["text"]),
    ]


def _wrangle_bundle(row: Tuple):
    return [
        row["doc_id"],
        resolve_stage(row["entities"], row["events"]),
        row["sentences"],
    ]


def _wrangle_seconds(row: Tuple) -> float:
    return DICE_COSTS.wrangle_per_event_s * len(row["events"])


def _link_rows(row: Tuple):
    return link_stage(row["doc_id"], row["resolved"], row["sentences"])[0]


def _link_seconds(row: Tuple) -> float:
    return DICE_COSTS.link_per_event_s * len(row["resolved"]) + (
        DICE_COSTS.link_per_candidate_s
        * link_stage(row["doc_id"], row["resolved"], row["sentences"])[1]
    )


# -- relational-stage UDFs ----------------------------------------------------


def _entity_rows_of(row: Tuple):
    return entity_rows(row["doc_id"], row["content"])


def _event_rows_of(row: Tuple):
    return event_rows(row["doc_id"], row["content"])


def _sentence_rows_of(row: Tuple):
    return sentence_rows(row["doc_id"], row["content"])


# -- the spec documents -------------------------------------------------------


def dice_spec_dict() -> Dict[str, Any]:
    """The paper-style DICE DAG: per-document bundles through UDF stages.

    Matches what the paper describes for the Texera implementation
    (Section III-B): Texera "requires passing copies of both the list
    of sentences and annotation table through each operator in which
    they are needed" — so each operator carries the per-document state
    forward in its output tuples.  No stage blocks globally, so the
    workflow's marginal cost is its bottleneck stage (sentence
    linking), which is the pipelining story of Figure 13a.
    """
    costs = DICE_COSTS
    return {
        "spec": SPEC_VERSION,
        "name": "dice",
        "operators": [
            {
                "id": "ann-files",
                "type": "table_source",
                "config": {
                    "table": param_form("ann_files"),
                    "per_tuple_work_s": costs.source_per_file_s,
                    "output_batch_size": 1,
                },
            },
            {
                "id": "text-files",
                "type": "table_source",
                "config": {
                    "table": param_form("text_files"),
                    "per_tuple_work_s": costs.source_per_file_s,
                    "output_batch_size": 1,
                },
            },
            {
                "id": "pair-files",
                "type": "hash_join",
                "config": {
                    "build_key": "doc_id",
                    "probe_key": "doc_id",
                    "num_workers": param_form("num_workers"),
                    "per_tuple_work_s": 1.0e-5,
                    "output_batch_size": 1,
                },
            },
            {
                "id": "parse-annotations",
                "type": "map",
                "config": {
                    "output_schema": schema_form(PARSED_BUNDLE_SCHEMA),
                    "fn": callable_form(_parse_bundle),
                    "num_workers": param_form("num_workers"),
                    "per_tuple_work_s": costs.parse_annotations_per_file_s,
                    "output_batch_size": 1,
                },
            },
            {
                "id": "split-sentences",
                "type": "map",
                "config": {
                    "output_schema": schema_form(SPLIT_BUNDLE_SCHEMA),
                    "fn": callable_form(_split_bundle),
                    "num_workers": param_form("num_workers"),
                    "per_tuple_work_s": costs.parse_text_per_file_s,
                    "output_batch_size": 1,
                },
            },
            {
                "id": "filter-and-join-events",
                "type": "map",
                "config": {
                    "output_schema": schema_form(RESOLVED_BUNDLE_SCHEMA),
                    "fn": callable_form(_wrangle_bundle),
                    "num_workers": param_form("num_workers"),
                    "per_tuple_work_s": 0.0,
                    "extra_seconds_fn": callable_form(_wrangle_seconds),
                    "output_batch_size": 1,
                },
            },
            {
                "id": "link-sentences",
                "type": "flat_map",
                "config": {
                    "output_schema": schema_form(OUTPUT_SCHEMA),
                    "fn": callable_form(_link_rows),
                    "num_workers": param_form("num_workers"),
                    "per_tuple_work_s": 0.0,
                    "extra_seconds_fn": callable_form(_link_seconds),
                    "output_batch_size": 16,
                },
            },
            {
                "id": "view-results",
                "type": "sink",
                "config": {"per_tuple_work_s": costs.sink_per_row_s},
            },
        ],
        "links": [
            {"from": "ann-files", "to": "pair-files", "out": 0, "in": 0},
            {"from": "text-files", "to": "pair-files", "out": 0, "in": 1},
            {"from": "pair-files", "to": "parse-annotations", "out": 0, "in": 0},
            {"from": "parse-annotations", "to": "split-sentences", "out": 0, "in": 0},
            {
                "from": "split-sentences",
                "to": "filter-and-join-events",
                "out": 0,
                "in": 0,
            },
            {
                "from": "filter-and-join-events",
                "to": "link-sentences",
                "out": 0,
                "in": 0,
            },
            {"from": "link-sentences", "to": "view-results", "out": 0, "in": 0},
        ],
    }


def dice_relational_spec_dict() -> Dict[str, Any]:
    """Figure 4 as a fully relational DAG (ablation variant).

    Every wrangling step is its own filter/join/union operator.  This
    variant demonstrates the operator palette, but its two global hash
    joins are pipeline breakers on the build side, so it is *slower*
    than the document-bundle style the paper's Texera implementation
    used (see :func:`dice_spec_dict`); the ablation benchmark
    quantifies the difference.
    """
    costs = DICE_COSTS
    workers = param_form("num_workers")
    return {
        "spec": SPEC_VERSION,
        "name": "dice",
        "operators": [
            # File-level tuples are heavy (a whole report each): stream
            # them in single-file batches so downstream stages pipeline
            # at file grain.
            {
                "id": "ann-files",
                "type": "table_source",
                "config": {
                    "table": param_form("ann_files"),
                    "output_batch_size": 1,
                },
            },
            {
                "id": "text-files",
                "type": "table_source",
                "config": {
                    "table": param_form("text_files"),
                    "output_batch_size": 1,
                },
            },
            {
                "id": "extract-entities",
                "type": "flat_map",
                "config": {
                    "output_schema": schema_form(ENTITY_SCHEMA),
                    "fn": callable_form(_entity_rows_of),
                    "num_workers": workers,
                    "per_tuple_work_s": costs.parse_annotations_per_file_s * 0.6,
                    "output_batch_size": 16,
                },
            },
            {
                "id": "extract-events",
                "type": "flat_map",
                "config": {
                    "output_schema": schema_form(EVENT_SCHEMA),
                    "fn": callable_form(_event_rows_of),
                    "num_workers": workers,
                    "per_tuple_work_s": costs.parse_annotations_per_file_s * 0.4,
                    "output_batch_size": 16,
                },
            },
            {
                "id": "split-sentences",
                "type": "flat_map",
                "config": {
                    "output_schema": schema_form(SENTENCE_SCHEMA),
                    "fn": callable_form(_sentence_rows_of),
                    "num_workers": workers,
                    "per_tuple_work_s": costs.parse_text_per_file_s,
                    "output_batch_size": 16,
                },
            },
            {
                "id": "filter-clinical-events",
                "type": "filter",
                "config": {
                    "predicate": udf_predicate_form(
                        is_clinical_event, "trigger_type is clinical"
                    ),
                    "num_workers": workers,
                    "per_tuple_work_s": costs.wrangle_per_event_s * 0.15,
                },
            },
            {
                "id": "join-trigger-entity",
                "type": "hash_join",
                "config": {
                    "build_key": "entity_key",
                    "probe_key": "trigger_key",
                    "num_workers": workers,
                    "per_tuple_work_s": costs.wrangle_per_event_s * 0.45,
                },
            },
            {
                "id": "normalize-triggered",
                "type": "map",
                "config": {
                    "output_schema": schema_form(TRIGGERED_SCHEMA),
                    "fn": callable_form(_to_triggered),
                    "num_workers": workers,
                    "per_tuple_work_s": costs.wrangle_per_event_s * 0.05,
                },
            },
            {
                "id": "filter-has-arguments",
                "type": "filter",
                "config": {
                    "predicate": udf_predicate_form(
                        has_argument, "arg_key is not null"
                    ),
                    "num_workers": workers,
                    "per_tuple_work_s": costs.wrangle_per_event_s * 0.05,
                },
            },
            {
                "id": "filter-held-out",
                "type": "filter",
                "config": {
                    "predicate": udf_predicate_form(
                        _not_has_argument, "arg_key is null"
                    ),
                    "num_workers": workers,
                    "per_tuple_work_s": costs.wrangle_per_event_s * 0.05,
                },
            },
            {
                "id": "join-argument-entity",
                "type": "hash_join",
                "config": {
                    "build_key": "entity_key",
                    "probe_key": "arg_key",
                    "num_workers": workers,
                    "per_tuple_work_s": costs.wrangle_per_event_s * 0.25,
                },
            },
            {
                "id": "normalize-arguments",
                "type": "map",
                "config": {
                    "output_schema": schema_form(LINKED_SCHEMA),
                    "fn": callable_form(_arg_to_linked),
                    "num_workers": workers,
                    "per_tuple_work_s": costs.wrangle_per_event_s * 0.05,
                },
            },
            {
                "id": "pad-held-out",
                "type": "map",
                "config": {
                    "output_schema": schema_form(LINKED_SCHEMA),
                    "fn": callable_form(_noarg_to_linked),
                    "num_workers": workers,
                    "per_tuple_work_s": costs.wrangle_per_event_s * 0.05,
                },
            },
            {
                "id": "rejoin-held-out",
                "type": "union",
                "config": {"num_workers": workers},
            },
            {
                "id": "link-sentences",
                "type": "hash_join",
                "config": {
                    "build_key": "doc_id",
                    "probe_key": "doc_id",
                    "num_workers": workers,
                    "per_tuple_work_s": costs.link_per_event_s,
                },
            },
            {
                "id": "filter-containment",
                "type": "filter",
                "config": {
                    "predicate": udf_predicate_form(
                        _contained, "trigger span within sentence"
                    ),
                    "num_workers": workers,
                    "per_tuple_work_s": costs.link_per_candidate_s,
                },
            },
            {
                "id": "format-maccrobat-ee",
                "type": "map",
                "config": {
                    "output_schema": schema_form(OUTPUT_SCHEMA),
                    "fn": callable_form(_to_output),
                    "num_workers": workers,
                    "per_tuple_work_s": costs.link_per_candidate_s * 0.2,
                },
            },
            {
                "id": "view-results",
                "type": "sink",
                "config": {"per_tuple_work_s": costs.collect_per_row_s},
            },
        ],
        "links": [
            {"from": "ann-files", "to": "extract-entities", "out": 0, "in": 0},
            {"from": "ann-files", "to": "extract-events", "out": 0, "in": 0},
            {"from": "text-files", "to": "split-sentences", "out": 0, "in": 0},
            {
                "from": "extract-events",
                "to": "filter-clinical-events",
                "out": 0,
                "in": 0,
            },
            # build: entities
            {
                "from": "extract-entities",
                "to": "join-trigger-entity",
                "out": 0,
                "in": 0,
            },
            # probe: clinical events
            {
                "from": "filter-clinical-events",
                "to": "join-trigger-entity",
                "out": 0,
                "in": 1,
            },
            {
                "from": "join-trigger-entity",
                "to": "normalize-triggered",
                "out": 0,
                "in": 0,
            },
            {
                "from": "normalize-triggered",
                "to": "filter-has-arguments",
                "out": 0,
                "in": 0,
            },
            {
                "from": "normalize-triggered",
                "to": "filter-held-out",
                "out": 0,
                "in": 0,
            },
            # build: entities (reused)
            {
                "from": "extract-entities",
                "to": "join-argument-entity",
                "out": 0,
                "in": 0,
            },
            # probe: events with arguments
            {
                "from": "filter-has-arguments",
                "to": "join-argument-entity",
                "out": 0,
                "in": 1,
            },
            {
                "from": "join-argument-entity",
                "to": "normalize-arguments",
                "out": 0,
                "in": 0,
            },
            {
                "from": "normalize-arguments",
                "to": "rejoin-held-out",
                "out": 0,
                "in": 0,
            },
            {"from": "pad-held-out", "to": "rejoin-held-out", "out": 0, "in": 1},
            {"from": "filter-held-out", "to": "pad-held-out", "out": 0, "in": 0},
            # build: sentences
            {"from": "split-sentences", "to": "link-sentences", "out": 0, "in": 0},
            # probe: events
            {"from": "rejoin-held-out", "to": "link-sentences", "out": 0, "in": 1},
            {
                "from": "link-sentences",
                "to": "filter-containment",
                "out": 0,
                "in": 0,
            },
            {
                "from": "filter-containment",
                "to": "format-maccrobat-ee",
                "out": 0,
                "in": 0,
            },
            {
                "from": "format-maccrobat-ee",
                "to": "view-results",
                "out": 0,
                "in": 0,
            },
        ],
    }


def _bindings(reports: Sequence[CaseReport], num_workers: int) -> Dict[str, Any]:
    return {
        "ann_files": file_pairs_table(reports, "annotations"),
        "text_files": file_pairs_table(reports, "text"),
        "num_workers": num_workers,
    }


def build_dice_workflow(
    reports: Sequence[CaseReport], num_workers: int = 1
) -> Workflow:
    """Compile the paper-style DICE spec with runtime bindings."""
    doc = dice_spec_dict()
    return load_workflow_json(doc, _bindings(reports, num_workers))


def build_dice_workflow_relational(
    reports: Sequence[CaseReport], num_workers: int = 1
) -> Workflow:
    """Compile the relational-ablation DICE spec with runtime bindings."""
    doc = dice_relational_spec_dict()
    return load_workflow_json(doc, _bindings(reports, num_workers))


def run_dice_workflow(
    cluster: Cluster,
    reports: Sequence[CaseReport],
    num_workers: int = 1,
    style: str = "document",
) -> TaskRun:
    """Run the workflow-paradigm DICE task; returns its :class:`TaskRun`.

    ``style`` picks the DAG: ``"document"`` (paper-style bundles,
    default) or ``"relational"`` (pure operator-palette ablation).
    """
    if style == "document":
        wf = build_dice_workflow(reports, num_workers=num_workers)
    elif style == "relational":
        wf = build_dice_workflow_relational(reports, num_workers=num_workers)
    else:
        raise ValueError(f"unknown DICE workflow style {style!r}")
    cluster.tracer.label_run("dice/workflow")
    result = run_workflow(cluster, wf)
    return TaskRun(
        task="dice",
        paradigm=PARADIGM_WORKFLOW,
        output=result.table("view-results"),
        elapsed_s=result.elapsed_s,
        num_workers=num_workers,
        trace=run_trace_of(cluster),
        extras={
            "file_pairs": len(reports),
            "num_operators": wf.num_operators,
            "progress": result.progress.snapshot(),
        },
    )
