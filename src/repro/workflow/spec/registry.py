"""Operator-type registry: spec ``type`` strings -> logical operators.

Maps the grammar's operator types onto the existing
``repro.workflow.operators`` classes, mirroring how the Texera editor
maps palette entries onto operator implementations.  Task packages may
register their own types (the KGE stage operator and the WEF ensemble
trainer do) so domain operators are spec-addressable without living in
the core palette; the types this repository ships outside the palette
are listed in ``_ON_DEMAND`` and load on first use, so no caller has to
import their module for its side effect.

A factory is called as ``factory(operator_id, **config)`` with the
config already resolved by the loader; generic keys (``language``,
``output_batch_size``) are normalized by the loader before the call.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List

from repro.errors import WorkflowSpecError
from repro.workflow.operator import LogicalOperator
from repro.workflow.operators import (
    CsvSource,
    DistinctOperator,
    FilterOperator,
    FlatMapOperator,
    GroupByOperator,
    HashJoinOperator,
    JsonlSource,
    LimitOperator,
    MapOperator,
    ModelApplyOperator,
    ProjectionOperator,
    SampleOperator,
    SinkOperator,
    SortOperator,
    TableSource,
    TopKOperator,
    TrainOperator,
    UnionOperator,
    VisualizationOperator,
)
from repro.workflow.operators.aggregate import AggregationFunction

__all__ = [
    "operator_factory",
    "operator_types",
    "register_operator_type",
]

OperatorFactory = Callable[..., LogicalOperator]

_REGISTRY: Dict[str, OperatorFactory] = {}

#: Type name -> module that registers it when imported, so the task
#: packages and ``repro.gen`` load only when a spec names their operator.
_ON_DEMAND: Dict[str, str] = {
    "kge_stage": "repro.tasks.kge.workflow",
    "wef_ensemble_train": "repro.tasks.wef.workflow",
    "micro_batch_source": "repro.gen.operators",
    "raster_source": "repro.gen.operators",
}


def register_operator_type(name: str, factory: OperatorFactory) -> None:
    """Register an operator type under a name no other type holds."""
    if not name or not isinstance(name, str):
        raise WorkflowSpecError(
            f"operator type name must be a non-empty string, got {name!r}"
        )
    if name in _REGISTRY:
        raise WorkflowSpecError(f"operator type {name!r} is already registered")
    _REGISTRY[name] = factory


def operator_factory(name: str) -> OperatorFactory:
    """Look up a registered factory; unknown types name the catalogue."""
    if name not in _REGISTRY and name in _ON_DEMAND:
        import_module(_ON_DEMAND[name])
    try:
        return _REGISTRY[name]
    except KeyError:
        raise WorkflowSpecError(
            f"unknown operator type {name!r} "
            f"(registered types: {operator_types()})"
        ) from None


def operator_types() -> List[str]:
    """Sorted names of every operator type a spec may use."""
    return sorted(_REGISTRY.keys() | _ON_DEMAND.keys())


def _group_by(operator_id: str, aggregation, **config) -> GroupByOperator:
    if isinstance(aggregation, str):
        try:
            aggregation = AggregationFunction(aggregation)
        except ValueError:
            valid = sorted(a.value for a in AggregationFunction)
            raise WorkflowSpecError(
                f"group_by {operator_id!r}: unknown aggregation "
                f"{aggregation!r} (valid: {valid})"
            ) from None
    return GroupByOperator(operator_id, aggregation=aggregation, **config)


#: The built-in palette.  Keys are the grammar's ``type`` strings.
_BUILTINS: Dict[str, OperatorFactory] = {
    "table_source": TableSource,
    "csv_source": CsvSource,
    "jsonl_source": JsonlSource,
    "filter": FilterOperator,
    "projection": ProjectionOperator,
    "map": MapOperator,
    "flat_map": FlatMapOperator,
    "union": UnionOperator,
    "hash_join": HashJoinOperator,
    "group_by": _group_by,
    "sort": SortOperator,
    "top_k": TopKOperator,
    "limit": LimitOperator,
    "distinct": DistinctOperator,
    "sample": SampleOperator,
    "sink": SinkOperator,
    "visualization": VisualizationOperator,
    "model_apply": ModelApplyOperator,
    "train": TrainOperator,
}

for _name, _factory in _BUILTINS.items():
    register_operator_type(_name, _factory)
