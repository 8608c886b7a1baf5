"""Pipelined push-based execution of workflow DAGs on the cluster.

This is the Texera-substitute's engine room.  Each logical operator
fans out into ``num_workers`` physical instances; every instance is one
simulation process on a cluster node.  Tuples move between instances in
*batches* over channels; every batch pays encode on the producer's
node (codec chosen by the producer→consumer language pair — the
paper's cross-language overhead), transfer between nodes and decode on
the consumer's.  ``docs/architecture.md``, "How a batch is paid for",
is the one account of what a cache hit skips, what a fault replay
repeats and who frees channel RAM.

Because instances run concurrently and exchange batches as they are
produced, downstream operators start before upstream operators finish —
the *pipelining* the paper credits for the workflow paradigm's DICE and
GOTTA results (Sections III-D and IV-E).

Blocking operators (sort, group-by, training) only emit at end-of-input
and are therefore pipeline breakers, exactly as in a real engine.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence

from repro.cache.fingerprint import combine, fingerprint_value
from repro.cluster import CONTROLLER, Cluster, Codec, Mechanism, Node, charge
from repro.cluster.serialization import record_codec
from repro.config import ReproConfig
from repro.errors import OperatorError
from repro.relational import Table, Tuple
from repro.sched import PlacementRequest, Scheduler
from repro.sim import Store
from repro.workflow.dag import Link, Workflow
from repro.workflow.operator import LogicalOperator, OperatorExecutor, SourceExecutor
from repro.workflow.operators.sink import _SinkExecutor, _VisualizationExecutor
from repro.workflow.partitioning import Partitioner, partitioner_for
from repro.workflow.progress import OperatorState, ProgressTracker

__all__ = ["WorkflowResult", "WorkflowController", "run_workflow"]


class _Batch:
    """A serialized bundle of tuples in flight on a channel.

    ``source`` names the producing instance (``operator_id#worker``) so
    the consumer's cache keys can roll one prefix per upstream stream —
    each producer's sequence is deterministic even when fan-in arrival
    order is not.  ``digest`` is the content hash of ``tuples`` taken
    once at the producer's flush (None while the cache is dormant); the
    consumer folds it into its own key instead of hashing the rows again.
    """

    __slots__ = ("tuples", "nbytes", "source", "digest")

    def __init__(self, tuples: Sequence[Tuple], source: str = "") -> None:
        self.tuples = list(tuples)
        # Identical to estimate_bytes([t.values for t in tuples]) —
        # 16 bytes list overhead plus (8 + payload) per entry — but
        # reuses each tuple's cached size instead of re-walking values.
        self.nbytes = 16 + sum(8 + t.payload_bytes() for t in self.tuples)
        self.source = source
        self.digest: Optional[str] = None


class _Eos:
    """End-of-stream marker, one per producer instance per channel."""

    __slots__ = ()


_EOS = _Eos()


def _operator_fingerprint(operator: LogicalOperator, digests: Dict[int, str]) -> str:
    """Structural fingerprint of a logical operator (``repro.cache``).

    Keyed by class plus attribute values (predicates and UDFs hash by
    code, not identity), so rebuilding the same workflow for a repeat
    run maps onto the same cache entries.  ``digests`` maps ``id(value)``
    to the value's fingerprint; it is only valid while every value it
    names is alive and unchanged, i.e. within one plan build.
    """
    parts: List[Any] = ["wfop", type(operator).__module__, type(operator).__qualname__]
    state = vars(operator)
    for key in sorted(state):
        value = state[key]
        digest = digests.get(id(value))
        if digest is None:
            digest = digests[id(value)] = fingerprint_value(value)
        parts.append(key)
        parts.append(digest)
    return combine(*parts)


class _InboundPort:
    """One instance's receive side for one input port."""

    def __init__(self, store: Store, expected_eos: int, codec: Codec) -> None:
        self.store = store
        self.expected_eos = expected_eos
        self.codec = codec


class _Outbound:
    """One producer instance's send side for one outgoing link."""

    def __init__(
        self,
        link: Link,
        partitioner: Partitioner,
        consumer_ports: Sequence[_InboundPort],
        consumer_nodes: Sequence[Node],
        codec: Codec,
        batch_size: int,
    ) -> None:
        self.link = link
        self.partitioner = partitioner
        self.consumer_ports = list(consumer_ports)
        self.consumer_nodes = list(consumer_nodes)
        self.codec = codec
        self.batch_size = batch_size
        self._buffers: List[List[Tuple]] = [[] for _ in consumer_ports]

    def append(self, row: Tuple) -> List[int]:
        """Buffer a tuple; return consumer indices whose buffer is full."""
        full: List[int] = []
        for index in self.partitioner.route(row):
            buffer = self._buffers[index]
            buffer.append(row)
            if len(buffer) >= self.batch_size:
                full.append(index)
        return full

    def take_buffer(self, index: int) -> List[Tuple]:
        buffer, self._buffers[index] = self._buffers[index], []
        return buffer

    def pending_indices(self) -> List[int]:
        return [i for i, buffer in enumerate(self._buffers) if buffer]


class _Instance:
    """One physical worker instance of a logical operator."""

    def __init__(
        self,
        operator: LogicalOperator,
        worker_index: int,
        node: Node,
        executor: OperatorExecutor,
    ) -> None:
        self.operator = operator
        self.worker_index = worker_index
        self.node = node
        self.executor = executor
        self.inbound: Dict[int, _InboundPort] = {}
        self.outbound: List[_Outbound] = []
        #: Virtual CPU-seconds this instance charged (compute + codec).
        self.busy_s = 0.0
        #: Epoch counter under fault injection: one epoch per
        #: checkpointed input batch (the engine's recovery granularity).
        self.epoch = 0
        #: Restarts this instance performed (injected operator faults).
        self.restarts = 0
        #: ``repro.cache``: this instance's lineage chain root (None
        #: while the cache is dormant) and the rolling prefix key per
        #: input stream — each consumed batch folds its content hash
        #: into the stream's key, so a key identifies the *entire
        #: history* up to that batch (executor state included).
        self.cache_chain: Optional[str] = None
        self.cache_keys: Dict[str, str] = {}

    @property
    def operator_id(self) -> str:
        return self.operator.operator_id

    def __repr__(self) -> str:
        return f"<Instance {self.operator_id}[{self.worker_index}] on {self.node.name}>"


class WorkflowResult:
    """Outcome of one workflow execution."""

    def __init__(
        self,
        workflow: Workflow,
        results: Dict[str, Table],
        charts: Dict[str, Dict[str, Any]],
        progress: ProgressTracker,
        elapsed_s: float,
        num_worker_instances: int,
        operator_stats: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> None:
        self.workflow = workflow
        self.results = results
        self.charts = charts
        self.progress = progress
        self.elapsed_s = elapsed_s
        self.num_worker_instances = num_worker_instances
        #: Per-operator runtime accounting: instances, virtual CPU-seconds
        #: charged, and the nodes the instances ran on.
        self.operator_stats = operator_stats or {}

    def table(self, sink_id: Optional[str] = None) -> Table:
        """The collected table of one sink (or the only sink)."""
        if sink_id is None:
            if len(self.results) != 1:
                raise OperatorError(
                    "result", f"expected one sink, have {sorted(self.results)}"
                )
            return next(iter(self.results.values()))
        return self.results[sink_id]

    def __repr__(self) -> str:
        return (
            f"<WorkflowResult {self.workflow.name!r}: {sorted(self.results)} "
            f"in {self.elapsed_s:.2f}s>"
        )


class WorkflowController:
    """Deploys a workflow onto the cluster and drives it to completion."""

    def __init__(
        self,
        cluster: Cluster,
        workflow: Workflow,
        config: Optional[ReproConfig] = None,
    ) -> None:
        self.cluster = cluster
        self.workflow = workflow
        self.config = config or cluster.config
        self.env = cluster.env
        self.tracer = cluster.tracer
        #: Span covering the whole execution; instance spans nest under it.
        self._exec_span = None
        #: Instance spans still live, closed as "aborted" if a sibling
        #: operator's failure tears the execution down around them.
        self._instance_spans: List[Any] = []
        self.progress = ProgressTracker()
        self._instances: Dict[str, List[_Instance]] = {}
        #: Placement layer (``repro.sched``): operator-instance layout
        #: goes through this scheduler, one per controller session.
        self.scheduler = Scheduler(cluster)
        #: Pause gate: None while running; an un-triggered event while
        #: paused (instances wait on it before touching the next batch).
        self._pause_gate = None
        #: Channel-buffer RAM this controller holds per consumer node
        #: under ``repro.mem``: only _reserve_channel / _release_channel
        #: touch it, so a failed run's teardown can hand back the total.
        self._channel_ram: Dict[str, int] = {}

    # -- pause / resume (the GUI's pause button, paper Section III-A) ----------

    @property
    def is_paused(self) -> bool:
        return self._pause_gate is not None

    def pause(self) -> None:
        """Pause the execution at batch granularity.

        Instances finish the batch they are on, then block; running
        operators show the PAUSED state on the progress board.
        Idempotent.
        """
        if self._pause_gate is not None:
            return
        self._pause_gate = self.env.event()
        for op_id in self._instances:
            progress = self.progress.of(op_id)
            if progress.state is OperatorState.RUNNING:
                progress.transition(OperatorState.PAUSED)

    def resume(self) -> None:
        """Release a previous :meth:`pause`.  Idempotent."""
        if self._pause_gate is None:
            return
        for op_id in self._instances:
            progress = self.progress.of(op_id)
            if progress.state is OperatorState.PAUSED:
                progress.transition(OperatorState.RUNNING)
        gate, self._pause_gate = self._pause_gate, None
        gate.succeed()

    def _pause_point(self) -> Generator:
        """Instances yield here between batches; blocks while paused."""
        while self._pause_gate is not None:
            yield self._pause_gate

    # -- compilation -------------------------------------------------------------

    def _place(self, operator: LogicalOperator, worker_index: int) -> Node:
        return self.scheduler.place(
            PlacementRequest(
                kind="operator",
                label=f"{operator.operator_id}[{worker_index}]",
                operator_id=operator.operator_id,
                worker_index=worker_index,
                num_workers=operator.num_workers,
            )
        )

    def _build_plan(self) -> None:
        """Create instances, inbound ports and outbound channels."""
        wf_config = self.config.workflow
        order = self.workflow.topological_order()
        # 1. instances + progress registration.  Every operator is
        # fingerprinted before any executor exists, and a value several
        # operators hold (KGE's stages share one dataset) is pickled once.
        cache = self.cluster.cache
        fingerprints: Dict[str, str] = {}
        if cache.active:
            digests: Dict[int, str] = {}
            for operator in order:
                fingerprints[operator.operator_id] = _operator_fingerprint(
                    operator, digests
                )
        for operator in order:
            self.progress.register(operator.operator_id, operator.num_workers)
            op_fp = fingerprints.get(operator.operator_id)
            instances = []
            for index in range(operator.num_workers):
                instance = _Instance(
                    operator,
                    index,
                    self._place(operator, index),
                    operator.create_executor(index),
                )
                if op_fp is not None:
                    instance.cache_chain = combine(
                        "wf",
                        cache.config.epoch,
                        self.workflow.name or "",
                        op_fp,
                        index,
                        operator.num_workers,
                    )
                instances.append(instance)
            self._instances[operator.operator_id] = instances
        # 2. channels per link
        for link in self.workflow.links:
            producer_op = self.workflow.operators[link.producer_id]
            consumer_op = self.workflow.operators[link.consumer_id]
            consumers = self._instances[link.consumer_id]
            codec = self.cluster.codecs.for_boundary(
                producer_op.language.value, consumer_op.language.value
            )
            # Bounded channels give back-pressure; later ports of
            # in-order consumers stay unbounded to avoid diamond
            # deadlocks (the consumer will not drain them until the
            # earlier ports finish).
            bounded = not (consumer_op.consumes_ports_in_order and link.input_port > 0)
            capacity = wf_config.channel_capacity_batches if bounded else None
            ports: List[_InboundPort] = []
            for consumer in consumers:
                if link.input_port in consumer.inbound:
                    port = consumer.inbound[link.input_port]
                else:
                    port = _InboundPort(
                        Store(self.env, capacity),
                        expected_eos=producer_op.num_workers,
                        codec=codec,
                    )
                    consumer.inbound[link.input_port] = port
                ports.append(port)
            for producer in self._instances[link.producer_id]:
                producer.outbound.append(
                    _Outbound(
                        link,
                        partitioner_for(consumer_op, link.input_port, len(consumers)),
                        ports,
                        [c.node for c in consumers],
                        codec,
                        self._batch_size(producer_op),
                    )
                )

    # -- execution ---------------------------------------------------------------

    def execute(self) -> Generator:
        """Simulation process: run the workflow, return a result."""
        start = self.env.now
        tracer = self.tracer
        if tracer.enabled:
            self._exec_span = tracer.start(
                self.workflow.name or "workflow",
                category="workflow.controller",
                node=CONTROLLER,
            )
        try:
            self.workflow.compile_schemas()  # validates + captures schemas
            self._build_plan()
            wf_config = self.config.workflow
            deploy_time = (
                wf_config.startup_s
                + wf_config.operator_deploy_s * self.workflow.num_operators
            )
            with tracer.span(
                "deploy",
                category="workflow.deploy",
                node=CONTROLLER,
                parent=self._exec_span,
                operators=self.workflow.num_operators,
            ):
                yield self.env.timeout(deploy_time)
            for progress in (
                self.progress.of(op_id) for op_id in self._instances
            ):
                progress.transition(OperatorState.READY)

            processes = []
            for instances in self._instances.values():
                for instance in instances:
                    processes.append(self.env.process(self._run_instance(instance)))
            yield self.env.all_of(processes)
        except BaseException:
            for op_id in self._instances:
                progress = self.progress.of(op_id)
                if progress.state not in (
                    OperatorState.COMPLETED,
                    OperatorState.FAILED,
                ):
                    progress.transition(OperatorState.FAILED)
            for span in self._instance_spans:
                if not span.finished:
                    tracer.end(span, status="aborted")
            # Batches still queued or mid-consumption will never reach
            # _run_consumer's release: hand their RAM back here.
            for node_name, nbytes in self._channel_ram.items():
                if nbytes:
                    self._release_channel(node_name, nbytes)
            if self._exec_span is not None:
                tracer.end(self._exec_span, status="failed")
                self._exec_span = None
            raise

        results, charts = yield from self._gather_results()
        elapsed = self.env.now - start
        if self._exec_span is not None:
            tracer.end(self._exec_span, status="ok")
            self._exec_span = None
        stats = {
            op_id: {
                "instances": len(instances),
                "busy_s": round(sum(i.busy_s for i in instances), 6),
                "nodes": sorted({i.node.name for i in instances}),
            }
            for op_id, instances in self._instances.items()
        }
        return WorkflowResult(
            self.workflow,
            results,
            charts,
            self.progress,
            elapsed,
            num_worker_instances=sum(
                len(instances) for instances in self._instances.values()
            ),
            operator_stats=stats,
        )

    def _gather_results(self) -> Generator:
        """Pull sink tables back to the controller (network + decode)."""
        results: Dict[str, Table] = {}
        charts: Dict[str, Dict[str, Any]] = {}
        controller_node = self.cluster.node(CONTROLLER)
        for op_id, instances in self._instances.items():
            for instance in instances:
                executor = instance.executor
                if not isinstance(executor, _SinkExecutor):
                    continue
                table = executor.collected()
                nbytes = table.payload_bytes()
                yield self.env.process(
                    self.cluster.transfer(instance.node.name, CONTROLLER, nbytes)
                )
                # Not _codec_charge: the controller decodes the whole
                # table (items=0, no batch handling), nobody's busy_s
                # grows, and the span hangs under the execution span.
                codec = self.cluster.codecs.python
                decode_s = codec.decode_time(nbytes)
                record_codec(self.tracer, codec, "decode", nbytes, 0, decode_s)
                yield from charge(
                    controller_node, decode_s, span="gather-sink",
                    mechanism=Mechanism.SERIALIZATION, parent=self._exec_span,
                    attrs={"sink": op_id, "nbytes": nbytes},
                )
                results[op_id] = table
                if isinstance(executor, _VisualizationExecutor):
                    charts[op_id] = executor.chart_spec()
        return results, charts

    # -- instance loop ------------------------------------------------------------

    def _run_instance(self, instance: _Instance) -> Generator:
        # NOTE: always dereference ``instance.executor`` — a
        # checkpoint restore replaces it mid-run, so a local alias
        # captured here would go stale after the first restart.
        operator = instance.operator
        tracer = self.tracer
        span = None
        if tracer.enabled:
            span = tracer.start(
                f"{operator.operator_id}[{instance.worker_index}]",
                category="workflow.operator",
                node=instance.node.name,
                parent=self._exec_span,
                operator=operator.operator_id,
                language=operator.language.value,
            )
            self._instance_spans.append(span)
        try:
            instance.executor.open()
            yield from self._settle_charges(
                instance, cache_key=self._phase_key(instance, "open")
            )
            if isinstance(instance.executor, SourceExecutor):
                yield from self._run_source(instance)
            else:
                yield from self._run_consumer(instance)
            instance.executor.close()
            yield from self._settle_charges(
                instance, cache_key=self._phase_key(instance, "close")
            )
            yield from self._finish_outbound(instance)
        except OperatorError:
            if span is not None:
                tracer.end(span, status="failed")
            raise
        except Exception as exc:
            if span is not None:
                tracer.end(span, status="failed", error=type(exc).__name__)
            raise OperatorError(operator.operator_id, str(exc)) from exc
        finally:
            self.scheduler.release(instance.node.name)
        if span is not None:
            tracer.end(span, status="ok", busy_s=round(instance.busy_s, 9))
        progress = self.progress.of(operator.operator_id)
        progress.worker_completed()
        if progress.state is OperatorState.COMPLETED:
            progress.completed_at = self.env.now

    def _batch_size(self, operator: LogicalOperator) -> int:
        """Tuples per batch on ``operator``'s output channels."""
        return operator.output_batch_size or self.config.workflow.default_batch_size

    def _run_source(self, instance: _Instance) -> Generator:
        batch_size = self._batch_size(instance.operator)
        buffer: List[Tuple] = []
        for row in instance.executor.produce():  # type: ignore[attr-defined]
            buffer.append(row)
            if len(buffer) >= batch_size:
                yield from self._pause_point()
                yield from self._settle_charges(
                    instance,
                    cache_key=self._roll_key(
                        instance, "src", self._content_digest(instance, buffer)
                    ),
                )
                yield from self._emit(instance, buffer)
                buffer = []
        yield from self._settle_charges(
            instance,
            cache_key=self._roll_key(
                instance, "src", self._content_digest(instance, buffer)
            ),
        )
        if buffer:
            yield from self._emit(instance, buffer)

    def _run_consumer(self, instance: _Instance) -> Generator:
        operator = instance.operator
        faults = self.env.faults
        memory = self.cluster.memory
        for port_number in range(operator.num_input_ports):
            tuple_cost = operator.tuple_cost_s(port_number)
            port = instance.inbound[port_number]
            eos_seen = 0
            while eos_seen < port.expected_eos:
                get = port.store.get()
                try:
                    message = yield get
                except BaseException:
                    # Instance killed (operator fault escalation, abort)
                    # while blocked on its input channel: withdraw the
                    # get so an already-granted batch returns to the
                    # queue head for a restarted instance.
                    get.cancel()
                    raise
                if isinstance(message, _Eos):
                    eos_seen += 1
                    continue
                yield from self._pause_point()
                yield from self._consume_batch(
                    instance, port, port_number, message, tuple_cost
                )
                if memory.active:
                    # The channel buffer's RAM reservation (made by the
                    # producer's _flush) is held until the batch is
                    # fully consumed — bounded channels genuinely pin
                    # consumer-side memory under pressure.
                    self._release_channel(instance.node.name, message.nbytes)
                if faults.active:
                    instance.epoch += 1
            flushed = list(instance.executor.on_finish(port_number))
            yield from self._settle_charges(
                instance,
                cache_key=self._phase_key(instance, f"finish{port_number}"),
            )
            if flushed:
                yield from self._emit(instance, flushed)

    def _consume_batch(
        self,
        instance: _Instance,
        port: _InboundPort,
        port_number: int,
        message: _Batch,
        tuple_cost: float,
    ) -> Generator:
        """Decode, process and emit one input batch — exactly once.

        The batch is the engine's epoch: under fault injection the
        executor state is checkpointed at the batch boundary (after the
        upstream epoch marker, before any tuple of this batch), and an
        injected operator crash rolls the executor back to that
        checkpoint and replays the whole batch.  Outputs are only
        emitted after the batch completes, so downstream never sees
        tuples from an attempt that died mid-batch.
        """
        operator = instance.operator
        faults = self.env.faults
        wf_config = self.config.workflow
        # The batch's cache key folds the content digest its producer
        # took at the flush into a rolling prefix kept per (port,
        # producer instance), so the key encodes the executor's entire
        # input history from that upstream stream — each producer's
        # sequence is deterministic even when fan-in arrival *order* is
        # not.  Looked up exactly ONCE per epoch — fault replays of this
        # batch re-enter the loop below without touching the cache
        # again, so hit/miss/insert statistics stay identical whether or
        # not an operator fault fired mid-batch.
        batch_key = self._roll_key(
            instance, f"p{port_number}:{message.source}", message.digest
        )
        hit = self._probe(batch_key)
        snapshot = None
        while True:
            if hit:
                # Cached epoch: one lookup charge replaces decode +
                # batch handling; the tuples are still processed (for
                # real, below) so outputs stay bit-identical.
                yield from self._charge_hit(
                    instance, f"{operator.operator_id}:p{port_number}"
                )
            else:
                # Decode + handling on the consumer's node (re-charged
                # on replay: the restarted executor re-reads the batch).
                yield from self._codec_charge(instance, "decode", port.codec, message)
            if faults.active and snapshot is None:
                # Checkpoint at the epoch boundary: executor state
                # before any tuple of this batch mutates it.
                snapshot = instance.executor.snapshot()
                yield from charge(instance.node, wf_config.checkpoint_s, account=instance)
            fault = (
                faults.take_operator_fault(operator.operator_id, self.env.now)
                if faults.active
                else None
            )
            if fault is None:
                outputs: List[Tuple] = []
                seconds = 0.0
                flops = 0.0
                executor = instance.executor
                process_tuple = executor.process_tuple
                take_pending = executor.pending.take
                extend = outputs.extend
                for row in message.tuples:
                    extend(process_tuple(row, port_number))
                    extra_s, extra_f = take_pending()
                    seconds += tuple_cost + extra_s
                    flops += extra_f
                self.progress.record_input(
                    operator.operator_id, len(message.tuples), now=self.env.now
                )
                if not hit:
                    # (On a hit the per-tuple work was memoized; the
                    # accumulated charges are dropped — the real Python
                    # processing above already produced the outputs.)
                    yield from self._charge(instance, seconds, flops)
                    self._memoise(batch_key, message.nbytes, instance, "batch")
                if outputs:
                    yield from self._emit(instance, outputs)
                return
            # Injected crash mid-batch: half the tuples' work is done
            # and lost, then the operator restarts from the checkpoint.
            # KNOWN DEFECT (pinned in tests/workflow/test_charge_paths.py,
            # sized in ROADMAP item 1(a)): process_tuple's generator is
            # dropped unconsumed, so the lost rows charge tuple_cost but
            # never their extra seconds / flops.  The fix moves a golden
            # cell, so this loop stays apart from the whole-batch one.
            crash_at = len(message.tuples) // 2
            partial_s = 0.0
            partial_f = 0.0
            for row in message.tuples[:crash_at]:
                instance.executor.process_tuple(row, port_number)
                extra_s, extra_f = instance.executor.pending.take()
                partial_s += tuple_cost + extra_s
                partial_f += extra_f
            yield from self._charge(instance, partial_s, partial_f)
            yield from self._restart_from_checkpoint(instance, snapshot)

    def _restart_from_checkpoint(self, instance: _Instance, snapshot: Any) -> Generator:
        """Roll the executor back to the epoch checkpoint and recover."""
        faults = self.env.faults
        faults.retries += 1
        instance.restarts += 1
        tracer = self.tracer
        start = self.env.now
        if tracer.enabled:
            tracer.metrics.counter("faults.retries").inc()
        # Restoring leaves the snapshot intact, so it survives
        # repeated crashes of the same batch.
        instance.executor.restore(snapshot)
        try:
            yield from charge(
                instance.node, self.config.workflow.operator_restart_s,
                span=f"restart:{instance.operator_id}[{instance.worker_index}]",
                mechanism=Mechanism.RECOVERY, parent=self._exec_span,
                attrs={"epoch": instance.epoch}, account=instance,
            )
        finally:
            if tracer.enabled:
                tracer.metrics.counter("faults.recovery.virtual_seconds").add(
                    self.env.now - start
                )

    # -- cost settlement -----------------------------------------------------------

    def _codec_charge(
        self, instance: _Instance, direction: str, codec: Codec, batch: _Batch
    ) -> Generator:
        """Encode or decode ``batch`` on the instance's node, plus handling."""
        items = len(batch.tuples)
        price = codec.encode_time if direction == "encode" else codec.decode_time
        seconds = price(batch.nbytes, items)
        record_codec(self.tracer, codec, direction, batch.nbytes, items, seconds)
        yield from charge(
            instance.node, seconds + self.config.workflow.batch_handling_s,
            span=f"{direction}:{codec.name}", mechanism=Mechanism.SERIALIZATION,
            attrs={"nbytes": batch.nbytes}, account=instance,
        )

    def _charge(self, instance: _Instance, seconds: float, flops: float) -> Generator:
        node = instance.node
        if seconds > 0:
            yield from charge(node, seconds, account=instance)
        if flops > 0:
            wf_config = self.config.workflow
            cores = instance.operator.framework_cores or wf_config.torch_cores_per_operator
            yield from charge(
                node, flops=flops, cores=min(cores, node.num_cpus),
                efficiency=wf_config.multicore_efficiency, account=instance,
            )

    def _settle_charges(
        self, instance: _Instance, cache_key: Optional[str] = None
    ) -> Generator:
        seconds, flops = instance.executor.pending.take()
        # Memoizable settle point (open / per-source-batch / on_finish /
        # close), probed only when there is something to pay.  The key
        # encodes the instance's full input history, so a hit is only
        # possible when a previous run reached this exact state — and
        # then paid these exact charges.
        key = cache_key if seconds > 0 or flops > 0 else None
        if self._probe(key):
            yield from self._charge_hit(instance, instance.operator_id)
            return
        yield from self._charge(instance, seconds, flops)
        self._memoise(key, 0, instance, "operator")

    # -- result caching (repro.cache) ---------------------------------------------

    def _content_digest(
        self, instance: _Instance, rows: Sequence[Tuple]
    ) -> Optional[str]:
        """The one content hash of a batch's rows; None while dormant.

        Keys see the values as they are when hashed: a value mutated
        after its batch was flushed is keyed by its content at the flush.
        """
        if instance.cache_chain is None:
            return None
        return fingerprint_value([t.values for t in rows])

    def _roll_key(
        self, instance: _Instance, stream: str, digest: Optional[str]
    ) -> Optional[str]:
        """Fold a batch's content digest into the stream's rolling prefix key."""
        if instance.cache_chain is None:
            return None
        previous = instance.cache_keys.get(stream, "")
        key = combine(instance.cache_chain, stream, previous, digest)
        instance.cache_keys[stream] = key
        return key

    def _phase_key(self, instance: _Instance, tag: str) -> Optional[str]:
        """Key for a lifecycle settle (open/on_finish/close).

        Mixes in every stream's current rolling key, so the phase only
        hits when the instance consumed exactly the same history as the
        cached run.
        """
        if instance.cache_chain is None:
            return None
        parts: List[Any] = [instance.cache_chain, tag]
        for stream in sorted(instance.cache_keys):
            parts.append(stream)
            parts.append(instance.cache_keys[stream])
        return combine(*parts)

    def _probe(self, key: Optional[str]) -> bool:
        """Is ``key`` memoised?  Counts one lookup; never with no key."""
        return (
            key is not None
            and self.cluster.cache.lookup(key, tracer=self.tracer) is not None
        )

    def _memoise(
        self, key: Optional[str], nbytes: int, instance: _Instance, kind: str
    ) -> None:
        """Record that ``key``'s charges were paid on the instance's node."""
        if key is not None:
            self.cluster.cache.insert(
                key, nbytes, instance.node.name, kind=kind, tracer=self.tracer
            )

    def _charge_hit(self, instance: _Instance, label: str) -> Generator:
        """Charge one cache-hit lookup against the instance's node."""
        cost = self.cluster.cache.lookup_s
        if self.tracer.enabled:
            self.tracer.metrics.counter("cache.lookup.seconds").add(cost)
        yield from charge(
            instance.node, cost, span=f"cache.hit:{label}", mechanism=Mechanism.CACHE,
            attrs={"lookup_s": cost}, account=instance,
        )

    # -- emission --------------------------------------------------------------------

    def _emit(self, instance: _Instance, rows: Sequence[Tuple]) -> Generator:
        """Send output tuples downstream, flushing full batches."""
        self.progress.record_output(instance.operator_id, len(rows), now=self.env.now)
        for outbound in instance.outbound:
            if len(outbound._buffers) == 1:
                # Single-consumer channel: every partitioner routes every
                # row to index 0 (round-robin and hash both reduce mod 1,
                # broadcast spans one target), so skip per-row routing and
                # fill the buffer directly.  Flush boundaries are checked
                # per row exactly as in the general path, so batch sizes —
                # and therefore encode/transfer charges — are unchanged.
                buffer = outbound._buffers[0]
                size = outbound.batch_size
                for row in rows:
                    buffer.append(row)
                    if len(buffer) >= size:
                        yield from self._flush(instance, outbound, 0)
                        # _flush swapped in a fresh buffer; re-read it.
                        buffer = outbound._buffers[0]
                continue
            for row in rows:
                for index in outbound.append(row):
                    yield from self._flush(instance, outbound, index)

    def _flush(self, instance: _Instance, outbound: _Outbound, index: int) -> Generator:
        rows = outbound.take_buffer(index)
        if not rows:
            return
        batch = _Batch(
            rows, source=f"{instance.operator_id}#{instance.worker_index}"
        )
        tracer = self.tracer
        link = f"{outbound.link.producer_id}->{outbound.link.consumer_id}"
        if tracer.enabled:
            tracer.metrics.counter("workflow.batches", link=link).inc()
            tracer.metrics.counter("workflow.tuples", link=link).add(
                len(batch.tuples)
            )
            tracer.metrics.counter("workflow.bytes", link=link).add(batch.nbytes)
        destination = outbound.consumer_nodes[index]
        # Channel memo: the rolling key encodes everything this channel
        # has carried so far, so a hit means a previous run already
        # encoded and shipped this exact batch sequence — the consumer
        # can read it from the cached result instead (Texera's operator
        # result cache).  The batch itself still flows: admission
        # backpressure and the consumer queue see it either way.  The
        # rows are hashed here and only here; the digest rides the batch.
        flush_key = None
        if instance.cache_chain is not None:
            batch.digest = self._content_digest(instance, rows)
            flush_key = self._roll_key(
                instance, f"flush:{outbound.link.consumer_id}:{index}", batch.digest
            )
        if self._probe(flush_key):
            yield from self._charge_hit(instance, link)
        else:
            # Encode + handling on the producer's node.
            yield from self._codec_charge(instance, "encode", outbound.codec, batch)
            if destination.name != instance.node.name:
                yield self.env.process(
                    self.cluster.transfer(
                        instance.node.name, destination.name, batch.nbytes
                    )
                )
            self._memoise(flush_key, batch.nbytes, instance, "channel")
        if self.cluster.memory.active:
            # Admission backpressure on the consumer's node: above the
            # watermark this blocks (FIFO) until RAM frees, so channel
            # buffers participate in memory pressure instead of
            # growing unaccounted.  Released by _run_consumer once the
            # batch is consumed.
            yield from self._reserve_channel(destination.name, batch.nbytes)
        store = outbound.consumer_ports[index].store
        if tracer.enabled:
            tracer.metrics.histogram("workflow.queue_depth", link=link).record(
                len(store)
            )
        yield from self._put(store, batch)

    def _reserve_channel(self, node_name: str, nbytes: int) -> Generator:
        yield from self.cluster.memory.allocate(node_name, nbytes)
        self._channel_ram[node_name] = self._channel_ram.get(node_name, 0) + nbytes

    def _release_channel(self, node_name: str, nbytes: int) -> None:
        self._channel_ram[node_name] -= nbytes
        self.cluster.memory.free_anonymous(node_name, nbytes)

    def _put(self, store: Store, item: Any) -> Generator:
        """Put ``item`` on a channel; withdraw the put if killed meanwhile."""
        put = store.put(item)
        try:
            yield put
        except BaseException:
            # Producer killed while blocked on a full channel: withdraw
            # the pending put so the item doesn't materialize after its
            # producer is gone.
            put.cancel()
            raise

    def _finish_outbound(self, instance: _Instance) -> Generator:
        """Flush residual buffers and propagate EOS markers."""
        for outbound in instance.outbound:
            for index in outbound.pending_indices():
                yield from self._flush(instance, outbound, index)
            for port in outbound.consumer_ports:
                yield from self._put(port.store, _EOS)


def run_workflow(
    cluster: Cluster,
    workflow: Workflow,
    config: Optional[ReproConfig] = None,
) -> WorkflowResult:
    """Execute ``workflow`` on ``cluster``; blocks the (virtual) world.

    Returns the :class:`WorkflowResult`; total virtual duration is
    ``result.elapsed_s`` (also visible as the advance of
    ``cluster.env.now``).
    """
    controller = WorkflowController(cluster, workflow, config)
    return cluster.env.run(until=cluster.env.process(controller.execute()))
