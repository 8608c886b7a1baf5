"""Logical operators and their physical executors.

A *logical operator* is what the user drags onto the Texera canvas: a
typed, configured building block with input/output ports.  At compile
time each logical operator fans out into ``num_workers`` *executors*
(physical instances); each executor runs as one simulation process on a
cluster node.

Executors do real Python work on tuples and *declare* virtual-time
charges through :meth:`OperatorExecutor.charge` /
:meth:`OperatorExecutor.charge_flops`; the worker loop converts pending
charges into simulated node compute after each call.

Under fault injection the engine checkpoints an executor at every
batch boundary with :meth:`OperatorExecutor.snapshot` and rolls it back
with :meth:`OperatorExecutor.restore`.
"""

from __future__ import annotations

import abc
import copy
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple as PyTuple

from repro.errors import InvalidWorkflow
from repro.relational import Schema, Tuple
from repro.workflow.language import OperatorLanguage

__all__ = [
    "LogicalOperator",
    "OperatorExecutor",
    "DeclaredStateExecutor",
    "SourceExecutor",
    "PendingCharge",
]


class PendingCharge:
    """Virtual-time charges accumulated by an executor call."""

    __slots__ = ("seconds", "flops")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.flops = 0.0

    def take(self) -> PyTuple[float, float]:
        """Return and reset (seconds, flops)."""
        charge = (self.seconds, self.flops)
        self.seconds = 0.0
        self.flops = 0.0
        return charge


class OperatorExecutor(abc.ABC):
    """Physical instance of an operator, one per assigned worker.

    Lifecycle driven by the engine::

        open() -> process_tuple(t, port)* -> on_finish(port)* -> close()

    Ports are consumed in declared order when :attr:`consumes_ports_in_order`
    is True (e.g. a hash join reads its build port fully first).
    """

    def __init__(self) -> None:
        self.pending = PendingCharge()

    # -- cost declaration ----------------------------------------------------

    def charge(self, seconds: float) -> None:
        """Declare ``seconds`` of single-core work for the current call."""
        if seconds < 0:
            raise ValueError(f"negative charge: {seconds}")
        self.pending.seconds += seconds

    def charge_flops(self, flops: float) -> None:
        """Declare framework (model) compute for the current call.

        The engine converts FLOPs into time using the node's throughput
        and the engine's framework-core policy (Texera does not pin
        frameworks to one core — paper Section IV-A).
        """
        if flops < 0:
            raise ValueError(f"negative flops: {flops}")
        self.pending.flops += flops

    # -- lifecycle -----------------------------------------------------------

    def open(self) -> None:
        """One-off setup; may charge time (e.g. loading a model)."""

    @abc.abstractmethod
    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        """Consume one input tuple, yield zero or more output tuples."""

    def on_finish(self, port: int) -> Iterable[Tuple]:
        """Input port exhausted; flush any buffered outputs."""
        return ()

    def close(self) -> None:
        """Tear down (symmetric with :meth:`open`)."""

    # -- checkpoints -----------------------------------------------------------

    def snapshot(self) -> Any:
        """A copy of this executor's mutable state (the fault checkpoint).

        The default deep-copies every attribute.  The logical operators
        the executor references are plan data shared by every worker,
        so they stay shared: a restored executor still writes its
        artifacts (trained models) onto the real operator.  Executors
        that know their state derive from :class:`DeclaredStateExecutor`
        instead and copy exactly that.
        """
        return copy.deepcopy(vars(self), self._plan_memo())

    def restore(self, state: Any) -> None:
        """Roll back to ``state``; the same state may be restored again."""
        self.__dict__ = copy.deepcopy(state, self._plan_memo())

    def _plan_memo(self) -> Dict[int, Any]:
        return {
            id(value): value
            for value in vars(self).values()
            if isinstance(value, LogicalOperator)
        }


class DeclaredStateExecutor(OperatorExecutor):
    """An executor whose checkpoint is its pending charge plus declared state.

    Subclasses with state of their own extend :meth:`snapshot` and
    :meth:`restore` through ``super()``; everything else they hold
    (schemas, functions, configuration) never changes after creation.
    """

    def snapshot(self) -> Any:
        return self.pending.seconds, self.pending.flops

    def restore(self, state: Any) -> None:
        self.pending.seconds, self.pending.flops = state


class SourceExecutor(DeclaredStateExecutor):
    """Executor of a source operator: produces rather than consumes."""

    @abc.abstractmethod
    def produce(self) -> Iterable[Tuple]:
        """Yield the source's tuples (the engine batches them)."""

    def process_tuple(self, row: Tuple, port: int) -> Iterable[Tuple]:
        raise InvalidWorkflow("source operators have no input ports")


class LogicalOperator(abc.ABC):
    """A configured operator on the workflow canvas."""

    def __init__(
        self,
        operator_id: str,
        language: OperatorLanguage = OperatorLanguage.PYTHON,
        num_workers: int = 1,
        per_tuple_work_s: float = 0.0,
        framework_cores: Optional[int] = None,
        output_batch_size: Optional[int] = None,
    ) -> None:
        if not operator_id:
            raise InvalidWorkflow("operator_id must be non-empty")
        if num_workers < 1:
            raise InvalidWorkflow(
                f"operator {operator_id!r}: num_workers must be >= 1"
            )
        if per_tuple_work_s < 0:
            raise InvalidWorkflow(
                f"operator {operator_id!r}: negative per_tuple_work_s"
            )
        if framework_cores is not None and framework_cores < 1:
            raise InvalidWorkflow(
                f"operator {operator_id!r}: framework_cores must be >= 1"
            )
        if output_batch_size is not None and output_batch_size < 1:
            raise InvalidWorkflow(
                f"operator {operator_id!r}: output_batch_size must be >= 1"
            )
        self.operator_id = operator_id
        self.language = language
        self.num_workers = num_workers
        #: Declared per-tuple relational work at Python speed; the
        #: engine scales it by the language profile.
        self.per_tuple_work_s = per_tuple_work_s
        #: Cores the operator's framework (model) compute may use; None
        #: means the engine default (Texera leaves frameworks unpinned,
        #: paper Section IV-A).  Operators whose compute is inherently
        #: sequential (SGD training) set this to 1.
        self.framework_cores = framework_cores
        #: Batch size on this operator's OUTPUT channels; None means
        #: the engine default.  The engine (like Texera, paper Section
        #: III-B) batches heavy tuples — whole files, model inputs — in
        #: small batches so downstream operators pipeline at fine grain,
        #: while light tuples ride in large batches.
        self.output_batch_size = output_batch_size

    # -- shape ------------------------------------------------------------------

    @property
    def num_input_ports(self) -> int:
        return 1

    @property
    def num_output_ports(self) -> int:
        return 1

    @property
    def is_source(self) -> bool:
        return self.num_input_ports == 0

    @property
    def is_sink(self) -> bool:
        return self.num_output_ports == 0

    @property
    def consumes_ports_in_order(self) -> bool:
        """Whether input ports must be drained sequentially (0, 1, ...)."""
        return self.num_input_ports > 1

    def partition_key(self, port: int) -> Optional[str]:
        """Field to hash-partition this input port on, if required.

        Multi-worker stateful operators (joins, group-bys) return the
        key field so the compiler routes equal keys to equal workers;
        stateless operators return None (round-robin).
        """
        return None

    def partition_strategy(self, port: int) -> str:
        """Routing strategy for this input port: ``"hash"``,
        ``"broadcast"`` or ``"round_robin"``.

        The default derives from :meth:`partition_key`; operators that
        replicate an input to every worker (e.g. a broadcast-build
        join) override this.
        """
        return "hash" if self.partition_key(port) is not None else "round_robin"

    def with_output_batch_size(self, batch_size: int) -> "LogicalOperator":
        """Fluent override of the output batch size; returns ``self``.

        >>> wf.add_operator(TableSource("files", table).with_output_batch_size(1))
        """
        if batch_size < 1:
            raise InvalidWorkflow(
                f"operator {self.operator_id!r}: output_batch_size must be >= 1"
            )
        self.output_batch_size = batch_size
        return self

    # -- compile-time ---------------------------------------------------------------

    @abc.abstractmethod
    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        """Propagate schemas; raise :class:`InvalidWorkflow` on mismatch."""

    @abc.abstractmethod
    def create_executor(self, worker_index: int = 0) -> OperatorExecutor:
        """Instantiate the ``worker_index``-th physical executor.

        Called once per worker, ``worker_index`` in
        ``range(num_workers)`` — sources use it to slice their data
        across instances.
        """

    # ---------------------------------------------------------------------------

    def tuple_cost_s(self, port: int = 0) -> float:
        """Engine-side per-tuple cost for input ``port``.

        The default is port-independent; operators whose ports do
        asymmetric work (a hash join's build vs probe side) override
        this.
        """
        return self.language.tuple_cost(self.per_tuple_work_s)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.operator_id!r} "
            f"lang={self.language.value} workers={self.num_workers}>"
        )
