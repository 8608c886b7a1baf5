"""Stateful actors for the script runtime (``ray.remote`` classes).

An actor is an object pinned to one cluster node; method calls are
dispatched as messages and execute *serially* in arrival order (Ray's
actor semantics), each returning an :class:`ObjectRef`.  Actors let
script-paradigm code keep state — e.g. a model loaded once and reused
across calls — without re-reading it from the object store per task.
A call runs its method the way a task runs its body
(``docs/architecture.md``, "How a body runs", lists what differs).

Usage::

    class Counter:
        def __init__(self):
            self.total = 0

        def add(self, ctx, amount):          # plain or generator method
            yield from ctx.compute(0.01)
            self.total += amount
            return self.total

    def driver(rt):
        counter = rt.create_actor(Counter)
        refs = [counter.call("add", i) for i in range(5)]
        values = yield from rt.get_all(refs)
        counter.kill()
        return values
"""

from __future__ import annotations

from typing import Any, Generator, Tuple, Type

from repro.errors import RayxError
from repro.rayx.objectref import ObjectRef
from repro.sim import Store

__all__ = ["ActorHandle"]


class _Kill:
    """Poison pill terminating the actor loop."""

    __slots__ = ()


_KILL = _Kill()


class ActorHandle:
    """Client-side handle of a running actor.

    Created by :meth:`repro.rayx.RayxRuntime.create_actor`; do not
    instantiate directly.
    """

    def __init__(self, runtime, actor_class: Type, init_args: Tuple[Any, ...], node) -> None:
        from repro.rayx.runtime import TaskContext  # local: avoid cycle

        self.runtime = runtime
        self.actor_class = actor_class
        self.node = node
        self.name = f"{actor_class.__name__}@{node.name}"
        self._mailbox = Store(runtime.env)
        self._context = TaskContext(runtime, node)
        self._alive = True
        self.calls_processed = 0
        try:
            self._instance = actor_class(*init_args)
        except Exception as exc:
            # The placement made for an actor that never started.
            runtime.scheduler.release(node.name)
            raise RayxError(
                f"actor {actor_class.__name__} failed to construct: {exc}"
            ) from exc
        runtime.env.process(self._loop())

    # -- client side -------------------------------------------------------------

    def call(self, method_name: str, *args: Any) -> ObjectRef:
        """Invoke ``method_name(ctx, *args)`` on the actor; returns a ref.

        Calls execute serially in submission order.  Top-level
        :class:`ObjectRef` arguments are dereferenced on the actor's
        node before the method body runs, as with tasks.
        """
        if not self._alive:
            raise RayxError(f"actor {self.name} has been killed")
        if not hasattr(self._instance, method_name):
            raise RayxError(
                f"actor {self.actor_class.__name__} has no method {method_name!r}"
            )
        ref = ObjectRef(self.runtime.env, f"{self.name}.{method_name}")
        self._mailbox.put((method_name, args, ref))
        return ref

    def kill(self) -> None:
        """Terminate the actor after the queued calls drain."""
        if self._alive:
            self._alive = False
            self._mailbox.put(_KILL)

    # -- actor loop ----------------------------------------------------------------

    def _loop(self) -> Generator:
        tracer = self.runtime.tracer
        while True:
            get = self._mailbox.get()
            try:
                message = yield get
            except BaseException:
                # Actor killed while blocked on its mailbox: withdraw
                # the get so a granted-but-undelivered message returns
                # to the queue head instead of vanishing with us.
                get.cancel()
                raise
            if isinstance(message, _Kill):
                # The actor's placement slot frees only when it dies.
                self.runtime.scheduler.release(self.node.name)
                return
            method_name, args, ref = message
            span = None
            if tracer.enabled:
                span = tracer.start(
                    f"{self.actor_class.__name__}.{method_name}",
                    category="rayx.actor",
                    node=self.node.name,
                    actor=self.name,
                )
                tracer.metrics.counter("rayx.actor_calls", actor=self.name).inc()
            self._context.span = span
            yield self.runtime.env.timeout(self.runtime.config.rayx.task_dispatch_s)
            try:
                result = yield from self._context.run(
                    getattr(self._instance, method_name), args
                )
                self.calls_processed += 1
                yield from self.runtime.store.put(
                    ref, result, self.node.name, parent=span
                )
            except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
                self.runtime._reject(ref, span, exc)
                continue
            if span is not None:
                tracer.end(span, status="ok")

    def __repr__(self) -> str:
        state = "alive" if self._alive else "killed"
        return f"<ActorHandle {self.name} {state}, {self.calls_processed} calls>"
