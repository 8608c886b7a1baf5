"""Source operators: where data enters a workflow."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import InvalidWorkflow
from repro.relational import Schema, Table, Tuple
from repro.workflow.language import OperatorLanguage
from repro.workflow.operator import LogicalOperator, SourceExecutor

__all__ = ["TableSource", "JsonlSource", "CsvSource"]


class _TableScanExecutor(SourceExecutor):
    def __init__(self, rows: Sequence[Tuple], per_tuple_cost_s: float) -> None:
        super().__init__()
        self._rows = rows
        self._per_tuple_cost_s = per_tuple_cost_s

    def produce(self) -> Iterable[Tuple]:
        for row in self._rows:
            self.charge(self._per_tuple_cost_s)
            yield row


class TableSource(LogicalOperator):
    """Scan an in-memory :class:`~repro.relational.Table`.

    With ``num_workers > 1`` the table is range-partitioned across the
    source's worker instances, as a parallel file scan would be.
    """

    def __init__(
        self,
        operator_id: str,
        table: Table,
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        num_workers: int = 1,
        per_tuple_work_s: float = 1.0e-7,
    ) -> None:
        super().__init__(operator_id, language, num_workers, per_tuple_work_s)
        self.table = table

    @property
    def num_input_ports(self) -> int:
        return 0

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        if input_schemas:
            raise InvalidWorkflow(f"source {self.operator_id!r} takes no inputs")
        return self.table.schema

    def create_executor(self, worker_index: int = 0):
        rows = self.table.rows[worker_index :: self.num_workers]
        return _TableScanExecutor(rows, self.tuple_cost_s())


class JsonlSource(TableSource):
    """Scan already-parsed dict records (Figure 9's JSONL source).

    It takes the records, not JSONL text.  ``schema`` names the fields
    to extract from each record; missing fields become None.
    """

    def __init__(
        self,
        operator_id: str,
        records: Iterable[dict],
        schema: Schema,
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        num_workers: int = 1,
        per_tuple_work_s: float = 5.0e-7,
    ) -> None:
        table = Table.from_dicts(schema, records)
        super().__init__(
            operator_id, table, language, num_workers, per_tuple_work_s
        )


class CsvSource(TableSource):
    """Scan records parsed from CSV content (spreadsheet interchange).

    ``schema`` types the columns; parsing failures surface at
    construction time, before any virtual time is spent.
    """

    def __init__(
        self,
        operator_id: str,
        content: str,
        schema: Schema,
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        num_workers: int = 1,
        per_tuple_work_s: float = 6.0e-7,
    ) -> None:
        from repro.storage.csvio import table_from_csv

        super().__init__(
            operator_id,
            table_from_csv(content, schema),
            language,
            num_workers,
            per_tuple_work_s,
        )
