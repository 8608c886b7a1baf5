"""Blocking operators: group-by aggregation and sort."""

from __future__ import annotations

import copy
import enum
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import InvalidWorkflow
from repro.relational import Field, FieldType, Schema, Tuple
from repro.workflow.language import OperatorLanguage
from repro.workflow.operator import DeclaredStateExecutor, LogicalOperator

__all__ = ["AggregationFunction", "GroupByOperator", "SortOperator", "TopKOperator"]


class AggregationFunction(enum.Enum):
    """Aggregations supported by :class:`GroupByOperator`."""

    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


class _GroupState:
    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Any = None
        self.maximum: Any = None

    def update(self, value: Any) -> None:
        self.count += 1
        if value is None:
            return
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    def result(self, fn: AggregationFunction) -> Any:
        if fn is AggregationFunction.COUNT:
            return self.count
        if fn is AggregationFunction.SUM:
            return self.total
        if fn is AggregationFunction.AVG:
            return self.total / self.count if self.count else None
        if fn is AggregationFunction.MIN:
            return self.minimum
        return self.maximum


class _GroupByExecutor(DeclaredStateExecutor):
    def __init__(
        self,
        group_key: str,
        value_field: Optional[str],
        fn: AggregationFunction,
        out_schema: Schema,
    ) -> None:
        super().__init__()
        self._group_key = group_key
        self._value_field = value_field
        self._fn = fn
        self._out_schema = out_schema
        self._groups: Dict[Any, _GroupState] = {}

    def snapshot(self):
        groups = {key: copy.copy(state) for key, state in self._groups.items()}
        return super().snapshot(), groups

    def restore(self, state) -> None:
        pending, groups = state
        super().restore(pending)
        self._groups = {key: copy.copy(group) for key, group in groups.items()}

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        state = self._groups.setdefault(row[self._group_key], _GroupState())
        value = row[self._value_field] if self._value_field else 1
        state.update(value)
        return ()

    def on_finish(self, port: int) -> Iterable[Tuple]:
        for key in sorted(self._groups, key=repr):
            state = self._groups[key]
            yield Tuple(self._out_schema, [key, state.result(self._fn)])


class GroupByOperator(LogicalOperator):
    """Group rows by one key and aggregate one value field.

    Blocking: emits only when its input is exhausted.  With multiple
    workers, the compiler hash-partitions the input on the group key so
    each worker owns complete groups.
    """

    def __init__(
        self,
        operator_id: str,
        group_key: str,
        aggregation: AggregationFunction,
        value_field: Optional[str] = None,
        result_field: str = "result",
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        num_workers: int = 1,
        per_tuple_work_s: float = 3.0e-7,
    ) -> None:
        if aggregation is not AggregationFunction.COUNT and value_field is None:
            raise InvalidWorkflow(
                f"group-by {operator_id!r}: {aggregation.value} needs value_field"
            )
        super().__init__(operator_id, language, num_workers, per_tuple_work_s)
        self.group_key = group_key
        self.aggregation = aggregation
        self.value_field = value_field
        self.result_field = result_field
        self._out_schema: Optional[Schema] = None

    def partition_key(self, port: int) -> Optional[str]:
        return self.group_key

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        key_field = schema.field(self.group_key)
        if self.value_field is not None:
            schema.index_of(self.value_field)
        result_type = (
            FieldType.INT
            if self.aggregation is AggregationFunction.COUNT
            else FieldType.FLOAT
        )
        self._out_schema = Schema(
            [Field(self.group_key, key_field.ftype), Field(self.result_field, result_type)]
        )
        return self._out_schema

    def create_executor(self, worker_index: int = 0):
        if self._out_schema is None:
            raise InvalidWorkflow(
                f"group-by {self.operator_id!r}: compile the workflow first"
            )
        return _GroupByExecutor(
            self.group_key, self.value_field, self.aggregation, self._out_schema
        )


class _BufferExecutor(DeclaredStateExecutor):
    """Buffers its input rows until ``on_finish`` (sort, top-k)."""

    def __init__(self) -> None:
        super().__init__()
        self._rows: List[Tuple] = []

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        self._rows.append(row)
        return ()

    def snapshot(self):
        # Append-only until on_finish: a row count is the state.
        return super().snapshot(), len(self._rows)

    def restore(self, state) -> None:
        pending, count = state
        super().restore(pending)
        del self._rows[count:]


class _SortExecutor(_BufferExecutor):
    def __init__(self, key: str, reverse: bool, per_tuple_sort_cost_s: float) -> None:
        super().__init__()
        self._key = key
        self._reverse = reverse
        self._per_tuple_sort_cost_s = per_tuple_sort_cost_s

    def on_finish(self, port: int) -> Iterable[Tuple]:
        # Charge the sort itself (n log n, approximated linearly here
        # since the engine already charged per-tuple ingest costs).
        self.charge(self._per_tuple_sort_cost_s * len(self._rows))
        self._rows.sort(key=lambda row: row[self._key], reverse=self._reverse)
        return list(self._rows)


class SortOperator(LogicalOperator):
    """Total sort by one field.  Blocking; single worker only."""

    def __init__(
        self,
        operator_id: str,
        key: str,
        reverse: bool = False,
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        per_tuple_work_s: float = 2.0e-7,
        per_tuple_sort_work_s: float = 4.0e-7,
    ) -> None:
        super().__init__(operator_id, language, 1, per_tuple_work_s)
        self.key = key
        self.reverse = reverse
        self.per_tuple_sort_work_s = per_tuple_sort_work_s

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        schema.index_of(self.key)
        return schema

    def create_executor(self, worker_index: int = 0):
        return _SortExecutor(
            self.key,
            self.reverse,
            self.language.tuple_cost(self.per_tuple_sort_work_s),
        )


class _TopKExecutor(_BufferExecutor):
    def __init__(self, key: str, k: int, reverse: bool) -> None:
        super().__init__()
        self._key = key
        self._k = k
        self._reverse = reverse

    def on_finish(self, port: int) -> Iterable[Tuple]:
        self._rows.sort(key=lambda row: row[self._key], reverse=self._reverse)
        return list(self._rows[: self._k])


class TopKOperator(LogicalOperator):
    """Keep the K extreme rows by one field (blocking; single worker).

    ``reverse=True`` (default) keeps the K *largest* values — the shape
    of KGE's "score, rank, return the most likely products" step.
    """

    def __init__(
        self,
        operator_id: str,
        key: str,
        k: int,
        reverse: bool = True,
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        per_tuple_work_s: float = 3.0e-7,
    ) -> None:
        if k < 1:
            raise InvalidWorkflow(f"top-k {operator_id!r}: k must be >= 1")
        super().__init__(operator_id, language, 1, per_tuple_work_s)
        self.key = key
        self.k = k
        self.reverse = reverse

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        schema.index_of(self.key)
        return schema

    def create_executor(self, worker_index: int = 0):
        return _TopKExecutor(self.key, self.k, self.reverse)
