"""The script-paradigm runtime: a Ray-like task executor.

This is the substitute for the paper's Ray cluster (Section IV-A,
"Ray-cluster").  A *driver* generator runs on the head node and submits
remote tasks; tasks acquire a slot from a ``num_cpus`` resource pool
(the paper tuned parallelism exclusively through this parameter), run on
worker nodes, read arguments from the shared object store and write
results back to it.

Mirrored Ray behaviours that matter to the reproduced experiments:

* ``num_cpus`` bounds concurrent tasks (1 in the one-worker setting);
* PyTorch-like model compute inside a task is pinned to
  ``RayxConfig.torch_cores_per_task`` cores (1, per the paper: "Ray
  configured the underlying frameworks (PyTorch) to use 1 CPU");
* every argument dereference and result store goes through the object
  store, paying size-proportional costs (decisive for the 1.59 GB
  GOTTA model);
* task launch charges a fixed dispatch cost, and the driver charges a
  one-off cluster startup cost.

Every body — task attempt, retry, cache-hit replay, reconstruction,
actor call — runs through :meth:`TaskContext.run`; the sequence and the
deliberate differences are in ``docs/architecture.md``, "How a body runs".

Usage::

    def double(ctx, x):
        yield from ctx.compute(0.1)
        return 2 * x

    def driver(rt):
        refs = [rt.submit(double, i) for i in range(4)]
        values = yield from rt.get_all(refs)
        return values

    result = run_script(cluster, driver)
"""

from __future__ import annotations

import inspect
from functools import partial
from typing import Any, Callable, Generator, Iterable, List, Optional, Sequence

from repro.cache.fingerprint import combine, fingerprint_function, fingerprint_value
from repro.cluster import CONTROLLER, Cluster, Mechanism, Node, charge
from repro.config import ReproConfig
from repro.errors import InjectedFault, RayxError
from repro.rayx.objectref import ObjectRef
from repro.rayx.objectstore import ObjectStore
from repro.sched import PlacementRequest, Scheduler
from repro.sim import Environment, Resource

__all__ = ["TaskContext", "RayxRuntime", "run_script"]


def _locality_refs(args: Sequence[Any]) -> tuple:
    """The ``ObjectRef`` arguments of a task, as placement hints.

    Scans one level into list/tuple arguments — the idiomatic
    ``rt.submit(fn, [model_ref], ...)`` pattern nests the big refs.
    """
    refs: List[ObjectRef] = []
    for arg in args:
        if isinstance(arg, ObjectRef):
            refs.append(arg)
        elif isinstance(arg, (list, tuple)):
            refs.extend(item for item in arg if isinstance(item, ObjectRef))
    return tuple(refs)


def _arg_fingerprint(arg: Any) -> str:
    """Lineage fingerprint of one task argument.

    An ``ObjectRef`` contributes its own lineage fingerprint (set at
    submit/put time), so identical computation chains key identically
    across runs; a ref without one (e.g. an actor result) falls back to
    its unique ``ref_id``, which can never produce a false hit.  Scans
    one level into list/tuple arguments, mirroring
    :func:`_locality_refs`.
    """
    if isinstance(arg, ObjectRef):
        return arg.fingerprint or arg.ref_id
    if isinstance(arg, (list, tuple)):
        return combine(
            "seq",
            type(arg).__name__,
            *(_arg_fingerprint(item) for item in arg),
        )
    return fingerprint_value(arg)


def task_fingerprint(epoch: int, fn: Callable[..., Any], args: Sequence[Any]) -> str:
    """Deterministic fingerprint of one task submission (``repro.cache``)."""
    return combine(
        "task",
        epoch,
        fingerprint_function(fn),
        *(_arg_fingerprint(arg) for arg in args),
    )


class TaskContext:
    """Execution context handed to every task (and the driver).

    Provides timed primitives; the function body does real Python work
    for free and charges virtual time explicitly through these calls —
    the simulation analogue of "the expensive parts are the library
    calls".
    """

    def __init__(self, runtime: "RayxRuntime", node: Node) -> None:
        self.runtime = runtime
        self.node = node
        #: Enclosing trace span (the task's or driver's); object-store
        #: and compute spans recorded through this context nest under it.
        self.span = None
        #: Label consulted for injected *task* faults (``_task_fault``);
        #: only retryable task bodies set it (the driver, actors and
        #: reconstruction runs are exempt).
        self.fault_label: Optional[str] = None
        #: Cache-hit replay mode (``repro.cache``): the body's real
        #: Python work still runs (producing the same values a miss
        #: would), but compute charges return immediately and
        #: object-store accesses take the free ``peek``/``adopt`` path.
        self.free = False

    @property
    def node_name(self) -> str:
        return self.node.name

    def compute(self, cpu_seconds: float, cores: int = 1) -> Generator:
        """Occupy ``cores`` of this task's node for ``cpu_seconds``."""
        return self._occupy("compute", cores, {"cores": cores}, cpu_seconds)

    def model_compute(self, flops: float) -> Generator:
        """Run framework (PyTorch-like) compute inside this task.

        Ray pinned the framework to ``torch_cores_per_task`` cores (1,
        paper Section IV-A) with linear scaling, however many are free.
        """
        cores = self.runtime.config.rayx.torch_cores_per_task
        attrs = {"cores": cores, "flops": flops}
        return self._occupy("model_compute", cores, attrs, flops=flops)

    def _occupy(
        self, name: str, cores: int, attrs: dict, seconds: float = 0.0, flops: float = 0.0
    ) -> Generator:
        """Charge this node in a ``compute`` span that closes after the
        completion checkpoint.  A cache-hit replay (``free``) charges nothing.
        """
        if self.free:
            return
        yield from charge(
            self.node, seconds, flops=flops, cores=cores, span=name,
            mechanism=Mechanism.COMPUTE, parent=self.span, attrs=attrs,
            then=self._completed if self.runtime.env.faults.active else None,
        )

    def _completed(self, start: float) -> Generator:
        """Raise a node crash since ``start`` or a due task fault: the
        earliest timed boundary where a real runtime would see the loss."""
        env = self.runtime.env
        if env.faults.node_crashed_between(self.node.name, start, env.now):
            raise InjectedFault(f"node {self.node.name} crashed mid-compute", kind="node")
        if self.fault_label is not None:
            yield from self._task_fault()

    def _task_fault(self) -> Generator:
        """Raise the injected task fault due for ``fault_label``, if any.

        The one checkpoint behind every place a task can be told to
        die: a compute boundary, the post-dispatch check and the
        re-check after a cache-hit lookup charge.
        """
        env = self.runtime.env
        fault = env.faults.take_task_fault(self.fault_label, env.now)
        if fault is not None:
            # The task makes delay_s of further progress, then dies.
            if fault.delay_s > 0:
                yield env.timeout(fault.delay_s)
            raise InjectedFault(
                f"injected fault in task {self.fault_label!r}", kind="task"
            )

    def run(self, fn: Callable[..., Any], args: Sequence[Any]) -> Generator:
        """Run the body ``fn(ctx, *args)`` here; returns its result.

        The one way a body runs — task attempt, retry, cache-hit
        replay, lineage reconstruction and actor call differ only in
        how this context was set up (``docs/architecture.md``, "How a
        body runs").  Top-level :class:`ObjectRef` arguments are
        dereferenced on this node first, as Ray does (a replay peeks);
        ``fn`` may be a generator function (yielding simulation events
        through this context) or a plain function.
        """
        resolved: List[Any] = []
        for arg in args:
            if isinstance(arg, ObjectRef):
                arg = yield from self.get(arg)
            resolved.append(arg)
        outcome = fn(self, *resolved)
        if inspect.isgenerator(outcome):
            outcome = yield from outcome
        return outcome

    def get(self, ref: ObjectRef) -> Generator:
        """Dereference an object ref from this task's node (a replay peeks)."""
        if self.free:
            return self.runtime.store.peek(ref)
        return self.runtime.store.get(ref, self.node.name, parent=self.span)

    def put(self, value: Any, label: str = "object") -> Generator:
        """Store ``value`` in the object store from this node.

        When a result cache is active the value is content-fingerprinted
        and the serialize+copy charge is memoized: a repeat ``put`` of
        identical content (e.g. the KGE model on a warm run) pays only
        the cache lookup, like a content-addressed plasma store.  The
        *live* value is always the one installed, so correctness never
        depends on the fingerprint.
        """
        runtime = self.runtime
        ref = ObjectRef(runtime.env, label)
        cache = runtime.cluster.cache
        if cache.active:
            ref.fingerprint = combine(
                "put", cache.config.epoch, fingerprint_value(value)
            )
        if self.free:
            yield from runtime.store.adopt(ref, value, self.node.name)
        elif runtime._probe(ref):
            yield from runtime._charge_lookup(ref.label, self.node.name, self.span)
            yield from runtime.store.adopt(ref, value, self.node.name)
        else:
            yield from runtime.store.put(
                ref, value, self.node.name, parent=self.span
            )
        runtime._memoise(ref, self.node.name, "put")
        return ref


class RayxRuntime:
    """A running script-paradigm cluster session."""

    def __init__(
        self,
        cluster: Cluster,
        num_cpus: int = 1,
        config: Optional[ReproConfig] = None,
    ) -> None:
        if num_cpus < 1:
            raise ValueError(f"num_cpus must be >= 1, got {num_cpus}")
        self.cluster = cluster
        self.config = config or cluster.config
        self.env: Environment = cluster.env
        self.num_cpus = num_cpus
        self.slots = Resource(self.env, capacity=num_cpus)
        self.store = ObjectStore(cluster, self.config.object_store)
        self.store.reconstructor = self._reconstruct_ref
        #: Placement layer (``repro.sched``): every node decision —
        #: submission, retry resubmission, lineage reconstruction and
        #: actor placement — goes through this scheduler.
        self.scheduler = Scheduler(cluster)
        self.scheduler.store = self.store
        self.driver_context = TaskContext(self, cluster.controller)
        self.tasks_submitted = 0
        self.tasks_completed = 0
        self.tracer = cluster.tracer
        #: Span covering the driver's lifetime; tasks nest under it.
        self._driver_span = None

    # -- task submission -------------------------------------------------------

    def submit(
        self, fn: Callable[..., Any], *args: Any, label: Optional[str] = None
    ) -> ObjectRef:
        """Launch ``fn(ctx, *args)`` as a remote task; returns its ref.

        ``fn`` may be a generator function (yielding simulation events
        through ``ctx``) or a plain function (runs with zero charged
        compute beyond dispatch and object-store costs).  Top-level
        :class:`ObjectRef` arguments are dereferenced on the task's
        node before the body runs, as Ray does.
        """
        ref = ObjectRef(self.env, label or getattr(fn, "__name__", "task"))
        cache = self.cluster.cache
        if cache.active:
            # Fingerprint before placement so the scheduler can steer
            # the task toward its cached result (locality policy only;
            # the default policy ignores the hint and stays
            # seed-identical).  Fingerprinting is pure Python — no
            # virtual time passes.
            ref.fingerprint = task_fingerprint(cache.config.epoch, fn, args)
        cache_node = cache.peek_node(ref.fingerprint)  # None while dormant
        node = self._place("task", ref, args, cache_node=cache_node)
        self.tasks_submitted += 1
        if self.env.faults.active:
            # Lineage, the basis for object reconstruction: enough to
            # re-execute the producer if every replica is lost.  Only
            # recorded under fault injection — clean runs keep zero
            # bookkeeping overhead.
            self.store.lineage[ref.ref_id] = (fn, args)
        self.env.process(
            self._run_task(partial(self._attempt, fn, args, ref), ref, args, node, "retry")
        )
        return ref

    def _place(
        self, kind: str, ref: ObjectRef, args: Sequence[Any], **hints: Any
    ) -> Node:
        """Ask the scheduler where the body behind ``ref`` runs (or re-runs)."""
        return self.scheduler.place(
            PlacementRequest(
                kind=kind, label=ref.label, refs=_locality_refs(args), **hints
            )
        )

    def _run_task(
        self,
        run_attempt: Callable[[Node, int], Generator],
        ref: ObjectRef,
        args: Sequence[Any],
        node: Node,
        kind: str,
    ) -> Generator:
        """Attempts of one task body (``run_attempt(node, attempt)``),
        with backoff and a fresh ``kind`` placement between them, until
        one stops asking for a retry.  Releases the last placement."""
        attempt = 0
        try:
            while (yield from run_attempt(node, attempt)):
                yield from self._backoff(attempt, ref, node)
                attempt += 1
                # A re-run is a fresh placement decision; the default
                # policy keeps a retry on the same node and sends a
                # reconstruction to the first healthy worker.
                self.scheduler.release(node.name)
                node = self._place(kind, ref, args, prev_node=node.name)
        finally:
            self.scheduler.release(node.name)

    def _attempt(
        self,
        fn: Callable[..., Any],
        args: Sequence[Any],
        ref: ObjectRef,
        node: Node,
        attempt: int,
    ) -> Generator:
        """One attempt on ``node``: slot, dispatch, fault checks, cache
        probe, body, result landing.  Returns True when an injected
        fault ended it with retries left; otherwise ``ref`` is settled.
        """
        tracer = self.tracer
        faults = self.env.faults
        span = None
        if tracer.enabled:
            span = tracer.start(
                ref.label,
                category="rayx.task",
                node=node.name,
                parent=self._driver_span,
            )
            if attempt:
                span.attrs["attempt"] = attempt
            tracer.metrics.counter("rayx.tasks").inc()
        yield from self._take_slot()
        if span is not None:
            # Time spent queued for a num_cpus slot, visible per task.
            span.attrs["queued_s"] = round(self.env.now - span.start_s, 9)
        context = TaskContext(self, node)
        context.span = span
        context.fault_label = ref.label
        try:
            yield self.env.timeout(self.config.rayx.task_dispatch_s)
            if faults.active:
                if faults.node_down(node.name, self.env.now):
                    raise InjectedFault(f"node {node.name} is down", kind="node")
                yield from context._task_fault()
            # Probed once per attempt: a hit whose attempt then dies
            # counts again on the retry.
            if self._probe(ref):
                # Cache hit: charge the lookup, then re-check for
                # injected faults that fell due inside the lookup
                # window — a hit must never mask a scheduled failure of
                # the producing task.
                yield from self._charge_lookup(ref.label, node.name, span)
                if faults.active:
                    yield from context._task_fault()
                context.free = True
            result = yield from context.run(fn, args)
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
            # Only *injected* faults are retried; real exceptions from
            # task bodies (and a fault with no retries left) reach the
            # ref's waiters unchanged.
            retries = self.config.rayx.max_task_retries if faults.active else 0
            if isinstance(exc, InjectedFault) and attempt < retries:
                if span is not None:
                    tracer.end(span, status="retried", error=exc.kind)
                return True
            self._reject(ref, span, exc)
            return False
        finally:
            self.slots.release()
        try:
            if context.free:
                yield from self.store.adopt(ref, result, node.name)
            else:
                yield from self.store.put(ref, result, node.name, parent=span)
            # Memoize (or, after a hit, refresh node/size metadata —
            # refreshes do not count as inserts).
            self._memoise(ref, node.name, "task")
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
            self._reject(ref, span, exc)
            return False
        self.tasks_completed += 1
        if span is not None:
            tracer.end(span, status="ok")
        return False

    def _take_slot(self) -> Generator:
        """Queue for one of the ``num_cpus`` slots; the caller releases it."""
        slot_request = self.slots.request()
        try:
            yield slot_request
        except BaseException:
            # Task process killed while queued for (or just granted) a
            # CPU slot: withdraw so the slot FIFO neither blocks nor
            # leaks capacity.
            slot_request.cancel()
            raise

    def _reject(self, ref: ObjectRef, span, exc: BaseException) -> None:
        """Close ``span`` as failed and forward ``exc`` to ``ref``'s waiters."""
        if span is not None:
            self.tracer.end(span, status="failed", error=type(exc).__name__)
        ref.reject(exc)

    def _probe(self, ref: ObjectRef) -> bool:
        """Probe the result cache for ``ref``'s fingerprint (a ``put``,
        a task attempt or a reconstruction).  Counts a hit or a miss
        and refreshes LRU order; the caller charges the lookup on a hit.
        """
        cache = self.cluster.cache
        return (
            cache.active
            and ref.fingerprint is not None
            and cache.lookup(ref.fingerprint, tracer=self.tracer) is not None
        )

    def _memoise(self, ref: ObjectRef, node_name: str, kind: str) -> None:
        """Record that ``ref``'s fingerprinted result now lives on ``node_name``."""
        cache = self.cluster.cache
        if cache.active and ref.fingerprint is not None:
            cache.insert(
                ref.fingerprint, ref.nbytes, node_name, kind=kind, tracer=self.tracer
            )

    def _backoff(self, attempt: int, ref: ObjectRef, node: Node) -> Generator:
        """Charge the exponential retry backoff on the virtual clock."""
        rayx = self.config.rayx
        delay = rayx.retry_backoff_base_s * (
            rayx.retry_backoff_multiplier**attempt
        )
        faults = self.env.faults
        faults.retries += 1
        tracer = self.tracer
        span = None
        if tracer.enabled:
            tracer.metrics.counter("faults.retries").inc()
            tracer.metrics.counter("faults.recovery.virtual_seconds").add(delay)
            span = tracer.start(
                f"retry-backoff:{ref.label}",
                category="faults.recovery",
                node=node.name,
                parent=self._driver_span,
                attempt=attempt,
            )
        try:
            yield self.env.timeout(delay)
        finally:
            if span is not None:
                tracer.end(span)

    def _charge_lookup(
        self, label: str, node_name: str, parent=None
    ) -> Generator:
        """Charge one cache-hit lookup on the virtual clock."""
        cache = self.cluster.cache
        cost = cache.lookup_s
        tracer = self.tracer
        span = None
        if tracer.enabled:
            span = tracer.start(
                f"cache.hit:{label}",
                category="cache",
                node=node_name,
                parent=parent,
                lookup_s=cost,
            )
            tracer.metrics.counter("cache.lookup.seconds").add(cost)
        try:
            if cost > 0:
                yield self.env.timeout(cost)
        finally:
            if span is not None:
                tracer.end(span)

    def _reconstruct_ref(self, ref: ObjectRef) -> Generator:
        """Rebuild a lost object by re-executing its producing task.

        Installed as ``store.reconstructor``; runs on the first healthy
        worker, re-dereferences the producer's arguments (recursively
        reconstructing *them* if needed) and re-runs the task body,
        charging its full virtual cost.  An injected fault that kills
        the re-run is retried like a task's, up to
        ``max_task_retries``.  Reconstruction runs outside the
        ``num_cpus`` slot pool — it is triggered from inside a ``get``
        that may itself hold a slot, and waiting for a second slot
        there could deadlock a fully subscribed pool.
        """
        fn, args = self.store.lineage[ref.ref_id]
        if self.env.faults.active:
            self.env.faults.reconstructions += 1
        if self.tracer.enabled:
            self.tracer.metrics.counter("faults.reconstructions").inc()
        hit = self._probe(ref)
        cache_node = self.cluster.cache.peek_node(ref.fingerprint)
        node = self._place("reconstruction", ref, args, cache_node=cache_node)
        yield from self._run_task(
            partial(self._reconstruct_attempt, fn, args, ref, hit),
            ref, args, node, "reconstruction",
        )

    def _reconstruct_attempt(
        self,
        fn: Callable[..., Any],
        args: Sequence[Any],
        ref: ObjectRef,
        hit: bool,
        node: Node,
        attempt: int,
    ) -> Generator:
        """One re-run of ``ref``'s producer on ``node``.  Returns True
        when an injected fault ended it with retries left; any other
        exception propagates to the rebuild's waiters."""
        tracer = self.tracer
        start = self.env.now
        span = None
        retried = None
        if tracer.enabled:
            span = tracer.start(
                f"reconstruct:{ref.label}",
                category="faults.recovery",
                node=node.name,
                parent=self._driver_span,
                cache_hit=hit,
            )
            if attempt:
                span.attrs["attempt"] = attempt
        try:
            # No ``fault_label``: a rebuild is exempt from task faults.
            context = TaskContext(self, node)
            context.span = span
            context.free = hit
            if hit:
                # The reconstructed object keeps its lineage
                # fingerprint, so recovery replays the producer for
                # free: one lookup charge, no dispatch, no argument
                # dereference costs, no put charge in ``restore``.
                yield from self._charge_lookup(ref.label, node.name, span)
            else:
                yield self.env.timeout(self.config.rayx.task_dispatch_s)
            result = yield from context.run(fn, args)
            yield from self.store.restore(ref, result, node.name, charge=not hit)
            self._memoise(ref, node.name, "task")
        except InjectedFault as exc:
            if attempt >= self.config.rayx.max_task_retries:
                raise
            retried = exc
        finally:
            if span is not None:
                if retried is None:
                    tracer.end(span)
                else:
                    tracer.end(span, status="retried", error=retried.kind)
            if tracer.enabled:
                tracer.metrics.counter("faults.recovery.virtual_seconds").add(
                    self.env.now - start
                )
        return retried is not None

    # -- actors --------------------------------------------------------------------

    def create_actor(self, actor_class: type, *init_args: Any):
        """Start a stateful actor on a scheduler-chosen node.

        The placement shares the runtime's scheduler (and, under the
        default policy, its round-robin counter) with task submission.
        Returns an :class:`repro.rayx.ActorHandle`; see its docstring
        for the calling convention.
        """
        from repro.rayx.actor import ActorHandle

        node = self.scheduler.place(
            PlacementRequest(kind="actor", label=actor_class.__name__)
        )
        return ActorHandle(self, actor_class, init_args, node)

    # -- driver-side helpers -----------------------------------------------------

    def put(self, value: Any, label: str = "object") -> Generator:
        """Driver-side ``ray.put``: store from the head node."""
        return self.driver_context.put(value, label)

    def get(self, ref: ObjectRef) -> Generator:
        """Driver-side ``ray.get`` for one ref."""
        return self.driver_context.get(ref)

    def get_all(self, refs: Iterable[ObjectRef]) -> Generator:
        """Driver-side ``ray.get`` for a list of refs (in order)."""
        values: List[Any] = []
        for ref in refs:
            value = yield from self.driver_context.get(ref)
            values.append(value)
        return values

    def wait(self, refs: Sequence[ObjectRef], num_returns: int = 1) -> Generator:
        """Driver-side ``ray.wait``: block until ``num_returns`` refs
        are ready; returns ``(ready, not_ready)`` without fetching.

        Lets drivers process results as they complete instead of
        blocking on the slowest task (the idiom behind dynamic load
        balancing in Ray scripts).
        """
        refs = list(refs)
        if not 1 <= num_returns <= len(refs):
            raise ValueError(
                f"num_returns must be in [1, {len(refs)}], got {num_returns}"
            )
        while True:
            ready = [ref for ref in refs if ref.is_ready]
            if len(ready) >= num_returns:
                not_ready = [ref for ref in refs if not ref.is_ready]
                return ready, not_ready
            try:
                yield self.env.any_of(
                    [ref.ready for ref in refs if not ref.is_ready]
                )
            except BaseException:  # noqa: BLE001
                # A failed ref counts as ready (Ray semantics); its
                # exception re-raises when the caller get()s it.
                continue

    def shutdown(self) -> None:
        """Free object-store RAM reservations."""
        self.store.free_all()


def run_script(
    cluster: Cluster,
    driver: Callable[[RayxRuntime], Generator],
    num_cpus: int = 1,
    config: Optional[ReproConfig] = None,
) -> Any:
    """Execute a script-paradigm driver to completion; returns its result.

    Charges the one-off cluster startup cost, runs the driver
    generator, shuts the runtime down and returns the driver's return
    value.  The caller reads the elapsed virtual time from
    ``cluster.env.now``.
    """
    runtime = RayxRuntime(cluster, num_cpus=num_cpus, config=config)
    tracer = runtime.tracer

    def main() -> Generator:
        startup_span = None
        if tracer.enabled:
            startup_span = tracer.start(
                "startup", category="rayx.startup", node=CONTROLLER
            )
        yield cluster.env.timeout(runtime.config.rayx.startup_s)
        if startup_span is not None:
            tracer.end(startup_span)
        body = driver(runtime)
        if not inspect.isgenerator(body):
            raise RayxError("driver must be a generator function taking (rt)")
        if tracer.enabled:
            runtime._driver_span = tracer.start(
                "driver", category="rayx.driver", node=CONTROLLER
            )
            runtime.driver_context.span = runtime._driver_span
        try:
            result = yield from body
        finally:
            if runtime._driver_span is not None:
                tracer.end(runtime._driver_span)
                runtime._driver_span = None
        return result

    try:
        return cluster.env.run(until=cluster.env.process(main()))
    finally:
        runtime.shutdown()
