"""Stateless row-at-a-time operators: filter, projection, map.

These are the bread-and-butter operators of the paper's workflows
("ranging from simple filtering and projection to visualization").
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from repro.errors import InvalidWorkflow
from repro.relational import Predicate, Schema, Tuple
from repro.workflow.language import OperatorLanguage
from repro.workflow.operator import DeclaredStateExecutor, LogicalOperator

__all__ = [
    "FilterOperator",
    "ProjectionOperator",
    "MapOperator",
    "FlatMapOperator",
    "UnionOperator",
]


class _FilterExecutor(DeclaredStateExecutor):
    def __init__(self, predicate: Predicate) -> None:
        super().__init__()
        self._predicate = predicate

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        if self._predicate(row):
            yield row


class FilterOperator(LogicalOperator):
    """Keep rows satisfying a :class:`~repro.relational.Predicate`."""

    def __init__(
        self,
        operator_id: str,
        predicate: Predicate,
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        num_workers: int = 1,
        per_tuple_work_s: float = 2.0e-7,
    ) -> None:
        super().__init__(operator_id, language, num_workers, per_tuple_work_s)
        self.predicate = predicate

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        return schema

    def create_executor(self, worker_index: int = 0):
        return _FilterExecutor(self.predicate)


class _ProjectionExecutor(DeclaredStateExecutor):
    def __init__(self, names: Sequence[str]) -> None:
        super().__init__()
        self._names = list(names)

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        yield row.project(self._names)


class ProjectionOperator(LogicalOperator):
    """Keep (and reorder) a subset of columns."""

    def __init__(
        self,
        operator_id: str,
        columns: Sequence[str],
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        num_workers: int = 1,
        per_tuple_work_s: float = 1.5e-7,
    ) -> None:
        if not columns:
            raise InvalidWorkflow(f"projection {operator_id!r} keeps no columns")
        super().__init__(operator_id, language, num_workers, per_tuple_work_s)
        self.columns = list(columns)

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        return schema.project(self.columns)

    def create_executor(self, worker_index: int = 0):
        return _ProjectionExecutor(self.columns)


class _MapExecutor(DeclaredStateExecutor):
    def __init__(
        self,
        schema: Schema,
        fn: Callable[[Tuple], Sequence[Any]],
        flops_fn: Optional[Callable[[Tuple], float]],
        extra_seconds_fn: Optional[Callable[[Tuple], float]],
    ) -> None:
        super().__init__()
        self._schema = schema
        self._fn = fn
        self._flops_fn = flops_fn
        self._extra_seconds_fn = extra_seconds_fn

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        if self._flops_fn is not None:
            self.charge_flops(self._flops_fn(row))
        if self._extra_seconds_fn is not None:
            self.charge(self._extra_seconds_fn(row))
        yield Tuple(self._schema, self._fn(row))


class MapOperator(LogicalOperator):
    """One-in/one-out Python UDF producing rows of ``output_schema``.

    ``flops_per_tuple`` optionally declares framework compute per row
    (e.g. an embedding lookup + distance); it may be a constant or a
    function of the input row.  ``extra_seconds_fn`` declares
    data-dependent per-row work (e.g. proportional to a list field's
    length) on top of ``per_tuple_work_s``.
    """

    def __init__(
        self,
        operator_id: str,
        output_schema: Schema,
        fn: Callable[[Tuple], Sequence[Any]],
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        num_workers: int = 1,
        per_tuple_work_s: float = 5.0e-7,
        flops_per_tuple: Optional[Any] = None,
        extra_seconds_fn: Optional[Callable[[Tuple], float]] = None,
    ) -> None:
        super().__init__(operator_id, language, num_workers, per_tuple_work_s)
        self._output_schema = output_schema
        self.fn = fn
        self.extra_seconds_fn = extra_seconds_fn
        if flops_per_tuple is None or callable(flops_per_tuple):
            self.flops_fn = flops_per_tuple
        else:
            constant = float(flops_per_tuple)
            self.flops_fn = lambda _row: constant

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        return self._output_schema

    def create_executor(self, worker_index: int = 0):
        return _MapExecutor(
            self._output_schema, self.fn, self.flops_fn, self.extra_seconds_fn
        )


class _FlatMapExecutor(DeclaredStateExecutor):
    def __init__(
        self,
        schema: Schema,
        fn: Callable[[Tuple], Iterable[Sequence[Any]]],
        extra_seconds_fn: Optional[Callable[[Tuple], float]],
    ) -> None:
        super().__init__()
        self._schema = schema
        self._fn = fn
        self._extra_seconds_fn = extra_seconds_fn

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        if self._extra_seconds_fn is not None:
            self.charge(self._extra_seconds_fn(row))
        for values in self._fn(row):
            yield Tuple(self._schema, values)


class FlatMapOperator(LogicalOperator):
    """One-in/many-out Python UDF (e.g. document -> sentences)."""

    def __init__(
        self,
        operator_id: str,
        output_schema: Schema,
        fn: Callable[[Tuple], Iterable[Sequence[Any]]],
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        num_workers: int = 1,
        per_tuple_work_s: float = 8.0e-7,
        extra_seconds_fn: Optional[Callable[[Tuple], float]] = None,
    ) -> None:
        super().__init__(operator_id, language, num_workers, per_tuple_work_s)
        self._output_schema = output_schema
        self.fn = fn
        self.extra_seconds_fn = extra_seconds_fn

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        return self._output_schema

    def create_executor(self, worker_index: int = 0):
        return _FlatMapExecutor(self._output_schema, self.fn, self.extra_seconds_fn)


class _UnionExecutor(DeclaredStateExecutor):
    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        yield row


class UnionOperator(LogicalOperator):
    """Union-all of N same-schema inputs (ports consumed in order)."""

    def __init__(
        self,
        operator_id: str,
        num_inputs: int = 2,
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        num_workers: int = 1,
        per_tuple_work_s: float = 1.0e-7,
    ) -> None:
        if num_inputs < 2:
            raise InvalidWorkflow(
                f"union {operator_id!r}: num_inputs must be >= 2"
            )
        super().__init__(operator_id, language, num_workers, per_tuple_work_s)
        self._num_inputs = num_inputs

    @property
    def num_input_ports(self) -> int:
        return self._num_inputs

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        first = input_schemas[0]
        for schema in input_schemas[1:]:
            if schema != first:
                raise InvalidWorkflow(
                    f"union {self.operator_id!r}: mismatched input schemas "
                    f"{first.names} vs {schema.names}"
                )
        return first

    def create_executor(self, worker_index: int = 0):
        return _UnionExecutor()
