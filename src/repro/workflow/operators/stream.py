"""Streaming utility operators: limit, distinct, sample.

All three are one-in/one-out, order-preserving and *streaming* (no
pipeline break): limit stops emitting after K rows, distinct suppresses
repeats, sample keeps a deterministic 1-in-N subset.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Set

from repro.errors import InvalidWorkflow
from repro.relational import Schema, Tuple
from repro.workflow.language import OperatorLanguage
from repro.workflow.operator import DeclaredStateExecutor, LogicalOperator
from repro.workflow.partitioning import stable_hash

__all__ = ["LimitOperator", "DistinctOperator", "SampleOperator"]


class _LimitExecutor(DeclaredStateExecutor):
    def __init__(self, limit: int) -> None:
        super().__init__()
        self._remaining = limit

    def snapshot(self):
        return super().snapshot(), self._remaining

    def restore(self, state) -> None:
        pending, self._remaining = state
        super().restore(pending)

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        if self._remaining > 0:
            self._remaining -= 1
            yield row


class LimitOperator(LogicalOperator):
    """Pass through the first K rows, drop the rest.

    Single worker (a distributed limit would need coordination);
    upstream operators keep running — the engine has no cancellation,
    matching how most dataflow engines implement LIMIT without
    side-channel abort.
    """

    def __init__(
        self,
        operator_id: str,
        limit: int,
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        per_tuple_work_s: float = 1.0e-7,
    ) -> None:
        if limit < 0:
            raise InvalidWorkflow(f"limit {operator_id!r}: limit must be >= 0")
        super().__init__(operator_id, language, 1, per_tuple_work_s)
        self.limit = limit

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        return schema

    def create_executor(self, worker_index: int = 0):
        return _LimitExecutor(self.limit)


class _DistinctExecutor(DeclaredStateExecutor):
    def __init__(self, key: Optional[str]) -> None:
        super().__init__()
        self._key = key
        self._seen: Set = set()

    def snapshot(self):
        return super().snapshot(), frozenset(self._seen)

    def restore(self, state) -> None:
        pending, seen = state
        super().restore(pending)
        self._seen = set(seen)

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        witness = row[self._key] if self._key else tuple(row.values)
        if witness not in self._seen:
            self._seen.add(witness)
            yield row


class DistinctOperator(LogicalOperator):
    """Suppress duplicate rows (or duplicate values of one key field).

    Streaming: the first occurrence passes immediately.  With multiple
    workers the input is hash-partitioned (on the key, or the whole
    row via the engine's stable hashing) so duplicates meet at the same
    worker.
    """

    def __init__(
        self,
        operator_id: str,
        key: Optional[str] = None,
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        num_workers: int = 1,
        per_tuple_work_s: float = 3.0e-7,
    ) -> None:
        super().__init__(operator_id, language, num_workers, per_tuple_work_s)
        self.key = key

    def partition_key(self, port: int) -> Optional[str]:
        return self.key

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        if self.key is not None:
            schema.index_of(self.key)
        if self.key is None and self.num_workers > 1:
            raise InvalidWorkflow(
                f"distinct {self.operator_id!r}: whole-row distinct "
                "requires a single worker (pass key= for parallel distinct)"
            )
        return schema

    def create_executor(self, worker_index: int = 0):
        return _DistinctExecutor(self.key)


class _SampleExecutor(DeclaredStateExecutor):
    def __init__(self, rate_denominator: int, key: Optional[str]) -> None:
        super().__init__()
        self._denominator = rate_denominator
        self._key = key
        self._counter = 0

    def snapshot(self):
        return super().snapshot(), self._counter

    def restore(self, state) -> None:
        pending, self._counter = state
        super().restore(pending)

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        if self._key is not None:
            keep = stable_hash(row[self._key]) % self._denominator == 0
        else:
            keep = self._counter % self._denominator == 0
            self._counter += 1
        if keep:
            yield row


class SampleOperator(LogicalOperator):
    """Keep a deterministic 1-in-N subset of the stream.

    With ``key`` set, sampling is by stable hash of that field (the
    same entities are kept run-to-run and across workers); without it,
    systematic sampling (every Nth row per worker).
    """

    def __init__(
        self,
        operator_id: str,
        one_in: int,
        key: Optional[str] = None,
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        num_workers: int = 1,
        per_tuple_work_s: float = 2.0e-7,
    ) -> None:
        if one_in < 1:
            raise InvalidWorkflow(f"sample {operator_id!r}: one_in must be >= 1")
        super().__init__(operator_id, language, num_workers, per_tuple_work_s)
        self.one_in = one_in
        self.key = key

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        (schema,) = input_schemas
        if self.key is not None:
            schema.index_of(self.key)
        return schema

    def create_executor(self, worker_index: int = 0):
        return _SampleExecutor(self.one_in, self.key)
