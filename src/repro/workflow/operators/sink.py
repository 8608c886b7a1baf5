"""Sink operators: where workflow results land.

The paper's workflows end in a "View Results" operator (Figure 9) or a
visualization operator (Figure 2); both collect tuples at a single
worker, and the controller fetches the collected table when the
execution completes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import InvalidWorkflow
from repro.relational import Schema, Table, Tuple
from repro.workflow.language import OperatorLanguage
from repro.workflow.operator import DeclaredStateExecutor, LogicalOperator

__all__ = ["SinkOperator", "VisualizationOperator"]


class _SinkExecutor(DeclaredStateExecutor):
    def __init__(self, schema: Schema) -> None:
        super().__init__()
        self.schema = schema
        self.rows: List[Tuple] = []

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        self.rows.append(row)
        return ()

    def snapshot(self):
        # Append-only until the run ends: a row count is the state.
        return super().snapshot(), len(self.rows)

    def restore(self, state) -> None:
        pending, count = state
        super().restore(pending)
        del self.rows[count:]

    def collected(self) -> Table:
        return Table(self.schema, self.rows)


class SinkOperator(LogicalOperator):
    """Collect all input tuples ("View Results")."""

    def __init__(
        self,
        operator_id: str,
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        per_tuple_work_s: float = 1.0e-7,
    ) -> None:
        super().__init__(operator_id, language, 1, per_tuple_work_s)
        self._schema: Optional[Schema] = None

    @property
    def num_output_ports(self) -> int:
        return 0

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        self._schema = schema
        return schema

    def create_executor(self, worker_index: int = 0):
        if self._schema is None:
            raise InvalidWorkflow(
                f"sink {self.operator_id!r}: compile the workflow first"
            )
        return _SinkExecutor(self._schema)


class _VisualizationExecutor(_SinkExecutor):
    def __init__(self, schema: Schema, chart_type: str, x: str, y: Optional[str]) -> None:
        super().__init__(schema)
        self._chart_type = chart_type
        self._x = x
        self._y = y

    def chart_spec(self) -> Dict[str, object]:
        """A minimal declarative chart specification of the collected data."""
        spec: Dict[str, object] = {
            "chart": self._chart_type,
            "x": {"field": self._x, "values": [row[self._x] for row in self.rows]},
        }
        if self._y is not None:
            spec["y"] = {"field": self._y, "values": [row[self._y] for row in self.rows]}
        return spec


class VisualizationOperator(SinkOperator):
    """Sink that additionally renders a chart spec from its input.

    The GUI would draw this; here the spec is an inspectable dict
    (DESIGN.md section 6 — GUI aspects exposed as Python objects).
    """

    CHART_TYPES = ("bar", "line", "scatter", "pie")

    def __init__(
        self,
        operator_id: str,
        chart_type: str,
        x_field: str,
        y_field: Optional[str] = None,
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        per_tuple_work_s: float = 3.0e-7,
    ) -> None:
        if chart_type not in self.CHART_TYPES:
            raise InvalidWorkflow(
                f"visualization {operator_id!r}: unknown chart type "
                f"{chart_type!r}; expected one of {self.CHART_TYPES}"
            )
        super().__init__(operator_id, language, per_tuple_work_s)
        self.chart_type = chart_type
        self.x_field = x_field
        self.y_field = y_field

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        schema.index_of(self.x_field)
        if self.y_field is not None:
            schema.index_of(self.y_field)
        return super().output_schema(input_schemas)

    def create_executor(self, worker_index: int = 0):
        if self._schema is None:
            raise InvalidWorkflow(
                f"visualization {self.operator_id!r}: compile the workflow first"
            )
        return _VisualizationExecutor(
            self._schema, self.chart_type, self.x_field, self.y_field
        )
