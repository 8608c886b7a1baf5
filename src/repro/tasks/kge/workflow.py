"""KGE under the workflow paradigm (Texera substitute).

Figure 7's five logical stages — availability filter, embedding-table
join, scoring, ranking, reverse lookup — rendered as workflow
operators, with two experiment axes:

* **Modularity (Fig 12b):** ``num_processing_ops`` fuses the stages
  into 1–6 operators.  Fused stages execute back-to-back inside one
  operator (no pipelining between them); split stages pipeline but add
  per-edge serialization.  The 6-operator variant splits the filter in
  two (availability / relevance), which adds overhead without moving
  the bottleneck — the paper's diminishing-returns point.
* **Language (Table I):** ``join_language="scala"`` replaces the
  single Python join with the paper's nine Scala operators
  implementing the same logic.  The Python join pays a fixed
  open()-time table install (the full product universe); the Scala
  chain streams the same table ~7x cheaper but adds two cross-language
  edges whose per-tuple bridge cost grows with the candidate count —
  which is why the Scala advantage collapses at 68k (Table I).

Each (fusion, language) variant is a spec document produced by
:func:`kge_spec_dict`; the default (5 ops, Python join) is committed
as ``examples/workflows/kge.json`` and pinned by a unit test.  The
dataset, model config and worker count bind at load time via
``$param``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple as PyTuple

from repro.cluster import Cluster
from repro.datasets.amazon import PRODUCT_SCHEMA, PURCHASE_RELATION
from repro.errors import InvalidWorkflow
from repro.relational import FieldType, Schema, Table, Tuple
from repro.tasks.base import PARADIGM_WORKFLOW, TaskRun, run_trace_of
from repro.tasks.kge.common import (
    EMBEDDED_SCHEMA,
    KGE_COSTS,
    RESULT_SCHEMA,
    SCORED_SCHEMA,
    KgeDataset,
)
from repro.workflow import LogicalOperator, OperatorExecutor, Workflow, run_workflow
from repro.workflow.language import OperatorLanguage
from repro.workflow.spec import (
    SPEC_VERSION,
    WorkflowSpec,
    build_workflow,
    callable_form,
    param_form,
    register_operator_type,
    schema_form,
)

__all__ = [
    "KgeStageOperator",
    "build_kge_workflow",
    "kge_spec_dict",
    "run_kge_workflow",
    "STAGE_FUSIONS",
]

#: Canonical stage order of Figure 7.
_STAGE_ORDER = ("filter", "join", "score", "rank", "lookup")

#: How ``num_processing_ops`` fuses the stages.
STAGE_FUSIONS: Dict[int, PyTuple[PyTuple[str, ...], ...]] = {
    1: (("filter", "join", "score", "rank", "lookup"),),
    2: (("filter",), ("join", "score", "rank", "lookup")),
    3: (("filter",), ("join",), ("score", "rank", "lookup")),
    4: (("filter",), ("join",), ("score",), ("rank", "lookup")),
    5: (("filter",), ("join",), ("score",), ("rank",), ("lookup",)),
    6: (
        ("filter_stock",),
        ("filter_relevance",),
        ("join",),
        ("score",),
        ("rank",),
        ("lookup",),
    ),
}

_STAGE_OUTPUT_SCHEMA = {
    "filter": PRODUCT_SCHEMA,
    "filter_stock": PRODUCT_SCHEMA,
    "filter_relevance": PRODUCT_SCHEMA,
    "join": EMBEDDED_SCHEMA,
    "score": SCORED_SCHEMA,
    "rank": SCORED_SCHEMA,
    "lookup": RESULT_SCHEMA,
}


class _KgeStageExecutor(OperatorExecutor):
    def __init__(self, operator: "KgeStageOperator") -> None:
        super().__init__()
        self._op = operator
        self._ranked_buffer: List[dict] = []

    def open(self) -> None:
        op = self._op
        costs = KGE_COSTS
        model_load = op.dataset.model.payload_bytes() / (
            op.models_config.disk_read_bytes_per_s
        )
        if "join" in op.stages:
            # Install the full-universe embedding table in-process.
            self.charge(
                model_load
                + costs.py_table_load_per_entity_s * op.dataset.model.num_entities
            )
        elif "score" in op.stages:
            # The scoring operator needs the model itself.
            self.charge(model_load)

    # -- per-tuple stages ---------------------------------------------------

    def _apply_streaming(self, record: dict) -> Optional[dict]:
        """Run this operator's pre-rank stages on one record."""
        op = self._op
        costs = KGE_COSTS
        model = op.dataset.model
        for stage in op.stages:
            if stage == "rank":
                break
            if stage == "filter":
                self.charge(costs.wf_filter_work_s)
                if not record["in_stock"]:
                    return None
            elif stage == "filter_stock":
                self.charge(costs.wf_filter_work_s * 0.5)
                if not record["in_stock"]:
                    return None
            elif stage == "filter_relevance":
                self.charge(costs.wf_filter_work_s * 0.5)
                if record["price"] <= 0:
                    return None
            elif stage == "join":
                self.charge(costs.wf_join_probe_work_s)
                record["embedding"] = model.embedding_of(record["product_id"])
            elif stage == "score":
                self.charge(costs.wf_score_work_s)
                record["score"] = model.score(
                    op.dataset.user_id, PURCHASE_RELATION, record["embedding"]
                )
        return record

    def _emit_record(self, record: dict) -> Tuple:
        schema = self._op.emit_schema
        return Tuple(schema, [record[name] for name in schema.names])

    def _lookup(self, record: dict, position: int) -> dict:
        self.charge(KGE_COSTS.wf_lookup_work_s)
        model = self._op.dataset.model
        recovered = model.reverse_lookup(record["embedding"])
        return {
            "rank": position,
            "product_id": recovered,
            "name": self._op.dataset.names[recovered],
            "score": record["score"],
        }

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        op = self._op
        record = self._apply_streaming(dict(row.as_dict()))
        if record is None:
            return
        if "rank" in op.stages:
            self.charge(KGE_COSTS.wf_rank_work_s)
            self._ranked_buffer.append(record)
            return
        if op.stages == ("lookup",):
            # Standalone lookup operator: position = arrival order
            # (input is already the ranked top-K).
            yield self._emit_record(self._lookup(record, len(self._ranked_buffer) + 1))
            self._ranked_buffer.append(record)
            return
        yield self._emit_record(record)

    def on_finish(self, port: int) -> Iterable[Tuple]:
        op = self._op
        if "rank" not in op.stages:
            return
        self._ranked_buffer.sort(
            key=lambda record: (-record["score"], record["product_id"])
        )
        top = self._ranked_buffer[: KGE_COSTS.top_k]
        if "lookup" in op.stages:
            for position, record in enumerate(top, start=1):
                yield self._emit_record(self._lookup(record, position))
        else:
            for record in top:
                yield self._emit_record(record)


class KgeStageOperator(LogicalOperator):
    """One fused group of Figure 7 stages."""

    def __init__(
        self,
        operator_id: str,
        dataset: KgeDataset,
        stages: Sequence[str],
        models_config,
        num_workers: int = 1,
    ) -> None:
        unknown = [s for s in stages if s not in _STAGE_OUTPUT_SCHEMA]
        if unknown:
            raise InvalidWorkflow(f"unknown KGE stages {unknown}")
        # Ranking is blocking and lookup relies on ranked arrival
        # order, so both run single-worker.
        serial = "rank" in stages or tuple(stages) == ("lookup",)
        super().__init__(
            operator_id,
            OperatorLanguage.PYTHON,
            num_workers=1 if serial else num_workers,
            per_tuple_work_s=0.0,
        )
        self.dataset = dataset
        self.stages = tuple(stages)
        self.models_config = models_config
        self.emit_schema = _STAGE_OUTPUT_SCHEMA[self.stages[-1]]

    @property
    def is_blocking(self) -> bool:
        return "rank" in self.stages

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        return self.emit_schema

    def create_executor(self, worker_index: int = 0):
        return _KgeStageExecutor(self)


register_operator_type("kge_stage", KgeStageOperator)

#: Schema of the Scala chain's streamed embedding table.
_TABLE_SCHEMA = Schema.of(entity_id=FieldType.STRING, embedding=FieldType.ANY)


def _table_values(row: Tuple):
    return [row["entity_id"], row["embedding"]]


def _embedded_values(row: Tuple):
    return [row["product_id"], row["name"], row["price"], row["embedding"]]


def _row_values(row: Tuple):
    return list(row.values)


def _scala_join_operators(num_workers_form: Any) -> List[Dict[str, Any]]:
    """The paper's nine Scala operators implementing the table join."""
    costs = KGE_COSTS
    return [
        # 1-3: stream, project and partition the full embedding table.
        {
            "id": "scala-embedding-table",
            "type": "table_source",
            "config": {
                "table": param_form("embedding_table"),
                "language": "scala",
                "per_tuple_work_s": costs.scala_table_work_per_entity_s,
            },
        },
        {
            "id": "scala-project-table",
            "type": "projection",
            "config": {
                "columns": ["entity_id", "embedding"],
                "language": "scala",
                "per_tuple_work_s": 1.0e-5,
            },
        },
        {
            "id": "scala-partition-table",
            "type": "map",
            "config": {
                "output_schema": schema_form(_TABLE_SCHEMA),
                "fn": callable_form(_table_values),
                "language": "scala",
                "per_tuple_work_s": 1.0e-5,
                "num_workers": num_workers_form,
            },
        },
        # 4: the join itself.
        {
            "id": "scala-hash-join",
            "type": "hash_join",
            "config": {
                "build_key": "entity_id",
                "probe_key": "product_id",
                "language": "scala",
                "per_tuple_work_s": 6.0e-5,
                "build_extra_work_s": 2.0e-5,
                "num_workers": num_workers_form,
            },
        },
        # 5-9: normalize the join output back to the pipeline's shape.
        {
            "id": "scala-normalize",
            "type": "map",
            "config": {
                "output_schema": schema_form(EMBEDDED_SCHEMA),
                "fn": callable_form(_embedded_values),
                "language": "scala",
                "per_tuple_work_s": 1.0e-5,
                "num_workers": num_workers_form,
            },
        },
        {
            "id": "scala-validate",
            "type": "filter",
            "config": {
                "predicate": {
                    "$predicate": {"op": "is_not_null", "column": "embedding"}
                },
                "language": "scala",
                "per_tuple_work_s": 1.0e-5,
                "num_workers": num_workers_form,
            },
        },
        {
            "id": "scala-cast",
            "type": "map",
            "config": {
                "output_schema": schema_form(EMBEDDED_SCHEMA),
                "fn": callable_form(_row_values),
                "language": "scala",
                "per_tuple_work_s": 1.0e-5,
                "num_workers": num_workers_form,
            },
        },
        {
            "id": "scala-dedup-check",
            "type": "map",
            "config": {
                "output_schema": schema_form(EMBEDDED_SCHEMA),
                "fn": callable_form(_row_values),
                "language": "scala",
                "per_tuple_work_s": 1.0e-5,
                "num_workers": num_workers_form,
            },
        },
        {
            "id": "scala-format",
            "type": "projection",
            "config": {
                "columns": ["product_id", "name", "price", "embedding"],
                "language": "scala",
                "per_tuple_work_s": 1.0e-5,
                "num_workers": num_workers_form,
            },
        },
    ]


_SCALA_CHAIN_LINKS = [
    {"from": "scala-embedding-table", "to": "scala-project-table", "out": 0, "in": 0},
    {"from": "scala-project-table", "to": "scala-partition-table", "out": 0, "in": 0},
    # build: embedding table
    {"from": "scala-partition-table", "to": "scala-hash-join", "out": 0, "in": 0},
    {"from": "scala-hash-join", "to": "scala-normalize", "out": 0, "in": 0},
    {"from": "scala-normalize", "to": "scala-validate", "out": 0, "in": 0},
    {"from": "scala-validate", "to": "scala-cast", "out": 0, "in": 0},
    {"from": "scala-cast", "to": "scala-dedup-check", "out": 0, "in": 0},
    {"from": "scala-dedup-check", "to": "scala-format", "out": 0, "in": 0},
]


def kge_spec_dict(
    num_processing_ops: int = 5, join_language: str = "python"
) -> Dict[str, Any]:
    """The Figure 7 DAG for one (fusion, language) point as a spec."""
    if num_processing_ops not in STAGE_FUSIONS:
        raise InvalidWorkflow(
            f"num_processing_ops must be in {sorted(STAGE_FUSIONS)}, "
            f"got {num_processing_ops}"
        )
    if join_language not in ("python", "scala"):
        raise InvalidWorkflow(f"join_language must be python or scala")
    if join_language == "scala" and num_processing_ops != 3:
        raise InvalidWorkflow(
            "the Scala variant replaces the join of the 3-operator "
            "implementation (paper Section IV-D); use num_processing_ops=3"
        )
    workers = param_form("num_workers")
    operators: List[Dict[str, Any]] = [
        {
            "id": "candidates",
            "type": "table_source",
            "config": {"table": param_form("candidates"), "num_workers": 1},
        }
    ]
    links: List[Dict[str, Any]] = []
    upstream = "candidates"
    for group in STAGE_FUSIONS[num_processing_ops]:
        if join_language == "scala" and group == ("join",):
            operators.extend(_scala_join_operators(workers))
            links.extend(_SCALA_CHAIN_LINKS)
            # probe: products
            links.append(
                {"from": upstream, "to": "scala-hash-join", "out": 0, "in": 1}
            )
            upstream = "scala-format"
            continue
        stage_id = "-".join(group)
        operators.append(
            {
                "id": stage_id,
                "type": "kge_stage",
                "config": {
                    "dataset": param_form("dataset"),
                    "stages": list(group),
                    "models_config": param_form("models_config"),
                    "num_workers": workers,
                },
            }
        )
        links.append({"from": upstream, "to": stage_id, "out": 0, "in": 0})
        upstream = stage_id
    operators.append({"id": "recommendations", "type": "sink", "config": {}})
    links.append({"from": upstream, "to": "recommendations", "out": 0, "in": 0})
    return {
        "spec": SPEC_VERSION,
        "name": f"kge-{num_processing_ops}ops-{join_language}",
        "operators": operators,
        "links": links,
    }


def _default_kge_spec_dict() -> Dict[str, Any]:
    return kge_spec_dict(5, "python")


def build_kge_workflow(
    dataset: KgeDataset,
    num_processing_ops: int = 5,
    join_language: str = "python",
    num_workers: int = 1,
    models_config=None,
) -> Workflow:
    """Compile the Figure 7 spec with the requested fusion/language."""
    from repro.config import default_config

    models_config = models_config or default_config().models
    # TODO(bench): this branch and ``_default_kge_spec_dict`` are redundant
    # now that nothing reads ``examples/workflows/kge.json`` at run time.
    # They stay only because fig12a prints this module's logical line
    # count and ``bench/golden.json`` digests that output; collapse both
    # into the ``else`` arm in the PR that next regenerates the golden.
    if (num_processing_ops, join_language) == (5, "python"):
        spec = WorkflowSpec.from_json(_default_kge_spec_dict())
    else:
        spec = WorkflowSpec.from_json(kge_spec_dict(num_processing_ops, join_language))
    bindings: Dict[str, Any] = {
        "candidates": dataset.candidates_table,
        "dataset": dataset,
        "models_config": models_config,
        "num_workers": num_workers,
    }
    if join_language == "scala":
        bindings["embedding_table"] = Table.from_rows(
            _TABLE_SCHEMA,
            ([eid, emb] for eid, emb in dataset.model.embedding_table()),
        )
    return build_workflow(spec, bindings)


def run_kge_workflow(
    cluster: Cluster,
    dataset: KgeDataset,
    num_processing_ops: int = 5,
    join_language: str = "python",
    num_workers: int = 1,
) -> TaskRun:
    """Run the workflow-paradigm KGE task; returns its :class:`TaskRun`."""
    wf = build_kge_workflow(
        dataset,
        num_processing_ops=num_processing_ops,
        join_language=join_language,
        num_workers=num_workers,
        models_config=cluster.config.models,
    )
    cluster.tracer.label_run("kge/workflow")
    result = run_workflow(cluster, wf)
    return TaskRun(
        task="kge",
        paradigm=PARADIGM_WORKFLOW,
        output=result.table("recommendations"),
        elapsed_s=result.elapsed_s,
        num_workers=num_workers,
        trace=run_trace_of(cluster),
        extras={
            "num_candidates": dataset.num_candidates,
            "num_processing_ops": num_processing_ops,
            "join_language": join_language,
            "num_operators": wf.num_operators,
        },
    )
