"""Hash join operator (two input ports: 0 = build, 1 = probe).

Port 0 is consumed fully before port 1 (a pipeline-breaking phase for
the build side only); probing streams, so downstream operators start
receiving join output while the probe side is still flowing — the
pipelining the paper credits for Texera's DICE/KGE behaviour.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.errors import InvalidWorkflow
from repro.relational import Schema, StreamingHashJoin, Tuple
from repro.workflow.language import OperatorLanguage
from repro.workflow.operator import DeclaredStateExecutor, LogicalOperator

__all__ = ["HashJoinOperator", "BUILD_PORT", "PROBE_PORT"]

BUILD_PORT = 0
PROBE_PORT = 1


class _HashJoinExecutor(DeclaredStateExecutor):
    def __init__(
        self,
        build_schema: Schema,
        probe_schema: Schema,
        build_key: str,
        probe_key: str,
        how: str,
        suffix: str,
    ) -> None:
        super().__init__()
        self._join = StreamingHashJoin(
            build_schema, probe_schema, build_key, probe_key, how=how, suffix=suffix
        )

    def snapshot(self):
        return super().snapshot(), self._join.snapshot()

    def restore(self, state) -> None:
        pending, join = state
        super().restore(pending)
        self._join.restore(join)

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        if port == BUILD_PORT:
            # Build-side cost is charged by the engine through the
            # operator's port-aware tuple_cost_s.
            self._join.add_build_tuple(row)
            return ()
        return list(self._join.probe(row))

    def on_finish(self, port: int) -> Iterable[Tuple]:
        if port == BUILD_PORT:
            self._join.finish_build()
        return ()


class HashJoinOperator(LogicalOperator):
    """Equi-join; build side on port 0, probe side on port 1."""

    def __init__(
        self,
        operator_id: str,
        build_key: str,
        probe_key: str,
        how: str = "inner",
        suffix: str = "_right",
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        num_workers: int = 1,
        per_tuple_work_s: float = 6.0e-7,
        build_extra_work_s: float = 2.0e-7,
        broadcast_build: bool = False,
    ) -> None:
        super().__init__(operator_id, language, num_workers, per_tuple_work_s)
        self.build_key = build_key
        self.probe_key = probe_key
        self.how = how
        self.suffix = suffix
        self.build_extra_work_s = build_extra_work_s
        #: Replicate the build side to every worker instead of hash
        #: partitioning both sides.  Pays build-side duplication to let
        #: the probe side round-robin (better balance under skew) —
        #: the classic broadcast-join trade-off.
        self.broadcast_build = broadcast_build
        self._schemas: Optional[Sequence[Schema]] = None

    @property
    def num_input_ports(self) -> int:
        return 2

    @property
    def consumes_ports_in_order(self) -> bool:
        return True

    def partition_key(self, port: int) -> Optional[str]:
        if self.broadcast_build:
            return None
        return self.build_key if port == BUILD_PORT else self.probe_key

    def partition_strategy(self, port: int) -> str:
        if self.broadcast_build:
            return "broadcast" if port == BUILD_PORT else "round_robin"
        return "hash"

    def tuple_cost_s(self, port: int = 0) -> float:
        """Build inserts are cheap; probes carry the declared work."""
        if port == BUILD_PORT:
            return self.language.tuple_cost(self.build_extra_work_s)
        return self.language.tuple_cost(self.per_tuple_work_s)

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        build_schema, probe_schema = input_schemas
        if self.build_key not in build_schema:
            raise InvalidWorkflow(
                f"join {self.operator_id!r}: build key {self.build_key!r} "
                f"not in build schema {build_schema.names}"
            )
        if self.probe_key not in probe_schema:
            raise InvalidWorkflow(
                f"join {self.operator_id!r}: probe key {self.probe_key!r} "
                f"not in probe schema {probe_schema.names}"
            )
        self._schemas = list(input_schemas)
        return probe_schema.concat(build_schema, suffix=self.suffix)

    def create_executor(self, worker_index: int = 0):
        if self._schemas is None:
            raise InvalidWorkflow(
                f"join {self.operator_id!r}: output_schema must run before "
                "executor creation (compile the workflow first)"
            )
        build_schema, probe_schema = self._schemas
        return _HashJoinExecutor(
            build_schema,
            probe_schema,
            self.build_key,
            self.probe_key,
            self.how,
            self.suffix,
        )
