"""Tuple routing between producer and consumer worker instances.

When an operator runs with several workers, each upstream instance must
decide which downstream instance receives each tuple.  Stateless
consumers use round-robin; stateful consumers (joins, group-bys)
require hash partitioning on their key so equal keys meet at the same
worker; broadcast replicates every tuple to all instances.

:func:`partitioner_for` is the one routing rule; the workflow engine
applies it on the wire and the script compiler over a consuming task's
concatenated input.

Hashing uses CRC32 of the key's repr — stable across processes and
Python versions, keeping simulated timings reproducible (Python's own
``hash`` is salted per process).
"""

from __future__ import annotations

import abc
import zlib
from typing import TYPE_CHECKING, Iterable, List

from repro.errors import InvalidWorkflow
from repro.relational import Tuple

if TYPE_CHECKING:
    from repro.workflow.operator import LogicalOperator

__all__ = ["Partitioner", "RoundRobinPartitioner", "HashPartitioner", "BroadcastPartitioner", "partitioner_for", "stable_hash"]


def stable_hash(value: object) -> int:
    """Deterministic non-negative hash of an arbitrary value."""
    return zlib.crc32(repr(value).encode("utf-8"))


class Partitioner(abc.ABC):
    """Chooses destination instance indices for each tuple."""

    def __init__(self, num_consumers: int) -> None:
        if num_consumers < 1:
            raise ValueError(f"num_consumers must be >= 1, got {num_consumers}")
        self.num_consumers = num_consumers

    @abc.abstractmethod
    def route(self, row: Tuple) -> Iterable[int]:
        """Destination instance indices for ``row``."""


class RoundRobinPartitioner(Partitioner):
    """Cycle through consumers; balances load for stateless operators."""

    def __init__(self, num_consumers: int) -> None:
        super().__init__(num_consumers)
        self._next = 0

    def route(self, row: Tuple) -> List[int]:
        index = self._next
        self._next = (self._next + 1) % self.num_consumers
        return [index]


class HashPartitioner(Partitioner):
    """Route by stable hash of one key field (co-locates equal keys)."""

    def __init__(self, num_consumers: int, key: str) -> None:
        super().__init__(num_consumers)
        self.key = key

    def route(self, row: Tuple) -> List[int]:
        return [stable_hash(row[self.key]) % self.num_consumers]


class BroadcastPartitioner(Partitioner):
    """Replicate every tuple to every consumer instance."""

    def route(self, row: Tuple) -> List[int]:
        return list(range(self.num_consumers))


def partitioner_for(
    consumer: "LogicalOperator", port: int, num_workers: int
) -> Partitioner:
    """How rows on input ``port`` reach ``consumer``'s ``num_workers``
    instances: to every worker, to the worker the stable hash of the
    port's key picks, or round robin (always, for one worker).

    Raises :class:`InvalidWorkflow` for hash routing without a key.
    """
    strategy = consumer.partition_strategy(port)
    if num_workers == 1 or strategy not in ("broadcast", "hash"):
        return RoundRobinPartitioner(num_workers)
    if strategy == "broadcast":
        return BroadcastPartitioner(num_workers)
    key = consumer.partition_key(port)
    if key is None:
        raise InvalidWorkflow(
            f"operator {consumer.operator_id!r}: hash partitioning on "
            f"port {port} without a partition key"
        )
    return HashPartitioner(num_workers, key)
