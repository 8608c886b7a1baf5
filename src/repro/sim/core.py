"""Discrete-event simulation kernel.

This module implements a small, deterministic discrete-event simulator in
the style of ``simpy``: simulation *processes* are Python generators that
``yield`` :class:`Event` objects, and an :class:`Environment` advances a
virtual clock from one scheduled event to the next.

The kernel is the substrate for everything timed in this repository: the
simulated GCP cluster (``repro.cluster``), the Ray-like script runtime
(``repro.rayx``) and the Texera-like workflow engine (``repro.workflow``)
all run as processes on one :class:`Environment`, so their virtual
timings are directly comparable — which is exactly the comparison the
paper performs with wall-clock time on real clusters.

Design notes
------------
* Events fire in ``(time, sequence)`` order; each queue entry is a
  ``(time, seq, event)`` tuple, and the sequence number — assigned when
  the event is scheduled — makes the simulation fully deterministic
  regardless of hash seeds.
* A :class:`Process` is itself an :class:`Event` that triggers when its
  generator returns, so processes can wait on each other by yielding.
* Failures propagate: an event failed with an exception re-raises inside
  any process waiting on it, mirroring how ``ray.get`` re-raises task
  errors and how workflow engines surface operator errors.

Fast-path notes (see ``docs/performance.md``)
---------------------------------------------
The kernel is the innermost loop of every experiment, so it trades a
little uniformity for speed while keeping the event order *exactly* the
``(time, sequence)`` order of a single heap:

* Hot objects are ``__slots__``-ed and the sequence counter is a plain
  integer inlined at each schedule site.
* Scheduled entries are split across three internally sorted queues
  whose heads are compared on every pop, so the global minimum is
  unchanged: ``_immediate`` (zero-delay entries from
  ``succeed``/``fail``/process bootstrap — appended in ``(time, seq)``
  order by construction because the clock is monotonic), ``_tail``
  (timeouts that arrive in non-decreasing order, the common case for
  homogeneous delays) and ``_queue`` (a real heap for everything that
  arrives out of order).
* :meth:`Environment._drain` is the one event loop: every ``run()``
  pops and dispatches there, and nothing else pops a queue entry.
* ``Event._callbacks`` is ``None`` until the first waiter, a bare
  callable for the (dominant) single-waiter case and a list only when
  two or more callbacks attach.
* The tracer hook is dormant-by-default: ``Environment.tracer`` is a
  property whose setter caches ``tracer.enabled`` into ``_tracing``;
  ``_drain`` reads it once per call and bumps the ``sim.events``
  counter only when tracing, so the dormant loop performs no per-event
  tracer attribute walks.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import EmptySchedule, EventAlreadyTriggered, ProcessFailed
from repro.faults.injector import NULL_INJECTOR
from repro.obs.tracer import NULL_TRACER

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "PENDING",
    "TRIGGERED",
    "PROCESSED",
]

#: Sentinel states for :attr:`Event.state`.  These exact module-level
#: strings are the only values ever assigned, so the kernel may compare
#: them with ``is``.
PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"

_INF = float("inf")


class Event:
    """A condition that will be *triggered* at some virtual time.

    Events carry an optional ``value`` (delivered to waiting processes)
    or an exception (re-raised in waiting processes).  Callbacks attached
    via :meth:`add_callback` run when the environment processes the
    event.
    """

    __slots__ = ("env", "state", "value", "exception", "_callbacks")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.state = PENDING
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        #: ``None`` | a single callable | a list of callables.
        self._callbacks: Any = None

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self.state is not PENDING

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.state is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self.value = value
        self.state = TRIGGERED
        env = self.env
        seq = env._sequence = env._sequence + 1
        env._immediate.append((env._now, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception re-raises inside every process waiting on this
        event.
        """
        if self.state is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.exception = exception
        self.state = TRIGGERED
        env = self.env
        seq = env._sequence = env._sequence + 1
        env._immediate.append((env._now, seq, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately; this makes waiting on completed events safe.
        """
        if self.state is PROCESSED:
            callback(self)
            return
        current = self._callbacks
        if current is None:
            self._callbacks = callback
        elif type(current) is list:
            current.append(callback)
        else:
            self._callbacks = [current, callback]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} state={self.state}>"


class Timeout(Event):
    """An event that triggers ``delay`` virtual seconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Direct initialisation (no super().__init__ chain): timeouts are
        # the single most-allocated object in the simulator.
        self.env = env
        self.delay = delay
        self.value = value
        self.exception = None
        self._callbacks = None
        self.state = TRIGGERED
        seq = env._sequence = env._sequence + 1
        entry = (env._now + delay, seq, self)
        tail = env._tail
        if tail and entry < tail[-1]:
            heapq.heappush(env._queue, entry)
        else:
            tail.append(entry)
        if env._tracing:
            env._tracer.metrics.counter("sim.timeouts").inc()


class Process(Event):
    """A running simulation process wrapping a generator.

    The generator yields :class:`Event` objects; each yield suspends the
    process until the event triggers, at which point the event's value is
    sent back in (or its exception thrown in).  When the generator
    returns, the process — being itself an event — triggers with the
    generator's return value, so other processes can wait on it.
    """

    __slots__ = ("_generator", "name", "_span", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        self.env = env
        self.state = PENDING
        self.value = None
        self.exception = None
        self._callbacks = None
        self._generator = generator
        self.name = getattr(generator, "__name__", "process")
        #: The bound resume callback, allocated once instead of per yield.
        self._resume_cb = self._resume
        self._span = (
            env._tracer.start(self.name, category="sim.process")
            if env._tracing
            else None
        )
        # Bootstrap: resume on the next kernel step at the current time.
        bootstrap = Event(env)
        bootstrap.state = TRIGGERED
        bootstrap._callbacks = self._resume_cb
        seq = env._sequence = env._sequence + 1
        env._immediate.append((env._now, seq, bootstrap))

    def _resume(self, event: Event) -> None:
        """Advance the generator by one step with ``event``'s outcome."""
        generator = self._generator
        while True:
            try:
                if event.exception is None:
                    target = generator.send(event.value)
                else:
                    target = generator.throw(event.exception)
            except StopIteration as stop:
                if self._span is not None:
                    self.env._tracer.end(self._span, status="ok")
                self.value = stop.value
                self.state = TRIGGERED
                env = self.env
                seq = env._sequence = env._sequence + 1
                env._immediate.append((env._now, seq, self))
                return
            except BaseException as exc:  # noqa: BLE001 - must capture all
                # A process that dies forwards its exception to waiters; if
                # nothing ever waits, Environment.run() raises at the end.
                if self._span is not None:
                    self.env._tracer.end(
                        self._span, status="failed", error=type(exc).__name__
                    )
                env = self.env
                env._failures.append(ProcessFailure(self, exc))
                self.exception = exc
                self.state = TRIGGERED
                seq = env._sequence = env._sequence + 1
                env._immediate.append((env._now, seq, self))
                return
            try:
                state = target.state
            except AttributeError:
                state = None
            if state is PENDING or state is TRIGGERED:
                callback = self._resume_cb
                current = target._callbacks
                if current is None:
                    target._callbacks = callback
                elif type(current) is list:
                    current.append(callback)
                else:
                    target._callbacks = [current, callback]
                return
            if state is PROCESSED:
                # Waiting on an already-completed event: resume again
                # immediately (iteratively — the seed recursed here).
                event = target
                continue
            raise ProcessFailed(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )


class ConditionValue:
    """Mapping-like view of the events collected by a condition."""

    __slots__ = ("events",)

    def __init__(self, events: List[Event]) -> None:
        self.events = events

    def values(self) -> List[Any]:
        """Values of the triggered events, in construction order."""
        return [event.value for event in self.events if event.triggered]


class AllOf(Event):
    """Triggers when *all* child events have triggered.

    Fails fast if any child fails, propagating the first exception —
    matching ``ray.get(list_of_refs)`` semantics.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.succeed(ConditionValue([]))
            return
        for event in self._events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.state is not PENDING:
            return
        if event.exception is not None:
            self.fail(event.exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(ConditionValue(self._events))


class AnyOf(Event):
    """Triggers when *any* child event triggers (value = that event)."""

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            raise ValueError("AnyOf requires at least one event")
        for event in self._events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.state is not PENDING:
            return
        if event.exception is not None:
            self.fail(event.exception)
        else:
            self.succeed(event)


class Environment:
    """The simulation environment: virtual clock plus event queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Heap for entries that arrive out of order.
        self._queue: List = []
        #: Deque of timeout entries appended in sorted order (the common
        #: case: repeated equal delays produce monotonic keys).
        self._tail: deque = deque()
        #: Deque of zero-delay entries; monotonic by construction
        #: because the clock never moves backwards and sequence numbers
        #: only grow.
        self._immediate: deque = deque()
        #: Inlined sequence counter (a plain int, incremented at each
        #: schedule site; the seed used ``itertools.count``).
        self._sequence = 0
        self._failures: List[ProcessFailure] = []
        #: Observability hook; clusters replace this with an enabled
        #: tracer (``repro.obs``).  The null default records nothing and
        #: leaves event scheduling — hence all timings — untouched.
        self._tracer = NULL_TRACER
        self._tracing = False
        #: Fault-injection hook (``repro.faults``); clusters replace
        #: this with an active injector.  The null default answers every
        #: check benignly and charges no virtual time.
        self._faults = NULL_INJECTOR

    # -- observability / fault hooks ---------------------------------------

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        self._tracing = bool(tracer.enabled)

    @property
    def faults(self):
        return self._faults

    @faults.setter
    def faults(self, injector) -> None:
        self._faults = injector

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from ``generator`` and return it."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when every event in ``events`` has."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when the first event in ``events`` does."""
        return AnyOf(self, events)

    # -- the run loop ------------------------------------------------------

    def peek(self) -> float:
        """Virtual time of the next scheduled event (inf if none)."""
        when = _INF
        if self._immediate:
            when = self._immediate[0][0]
        if self._tail and self._tail[0][0] < when:
            when = self._tail[0][0]
        if self._queue and self._queue[0][0] < when:
            when = self._queue[0][0]
        return when

    def _drain(self, deadline: float, until: Optional[Event]) -> bool:
        """The one event loop: pop-and-process until a stop condition.

        The only code in the kernel that pops a queue entry; events
        leave in ``(time, sequence)`` order.

        Stops when ``until`` (if given) has been processed, when the next
        event lies beyond ``deadline``, or when no events remain.
        Returns True only in the ran-out-of-events case.
        """
        immediate = self._immediate
        tail = self._tail
        queue = self._queue
        heappop = heapq.heappop
        inc = (
            self._tracer.metrics.counter("sim.events").inc
            if self._tracing
            else None
        )
        while until is None or until.state is not PROCESSED:
            # Select the globally smallest head among the three queues.
            if immediate:
                entry = immediate[0]
                if tail and tail[0] < entry:
                    entry = tail[0]
                    if queue and queue[0] < entry:
                        entry = heappop(queue)
                    else:
                        tail.popleft()
                elif queue and queue[0] < entry:
                    entry = heappop(queue)
                else:
                    immediate.popleft()
            elif tail:
                entry = tail[0]
                if queue and queue[0] < entry:
                    entry = heappop(queue)
                else:
                    tail.popleft()
            elif queue:
                entry = heappop(queue)
            else:
                return True
            when = entry[0]
            if when > deadline:
                # Put it back (relocating to the heap preserves order).
                heapq.heappush(queue, entry)
                return False
            self._now = when
            event = entry[2]
            event.state = PROCESSED
            if inc is not None:
                inc()
            callbacks = event._callbacks
            if callbacks is not None:
                event._callbacks = None
                if type(callbacks) is list:
                    for callback in callbacks:
                        callback(event)
                else:
                    callbacks(event)
        return False

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until the clock reaches that virtual time;
        * an :class:`Event` — run until that event is processed, then
          return its value (or re-raise its exception).
        """
        if until is None:
            self._drain(_INF, None)
            self._raise_orphan_failures()
            return None
        if isinstance(until, Event):
            return self._run_until_event(until)
        deadline = float(until)
        if deadline < self._now:
            raise ValueError(f"until={deadline} is in the past (now={self._now})")
        self._drain(deadline, None)
        if deadline > self._now:
            # The docstring promise: the clock reaches the deadline even
            # when the schedule drains early (the seed left it behind).
            self._now = deadline
        self._raise_orphan_failures()
        return None

    def _run_until_event(self, until: Event) -> Any:
        if until.state is not PROCESSED:
            drained = self._drain(_INF, until)
            if drained:
                self._abort_open_process_spans()
                raise EmptySchedule(
                    "simulation ran out of events before the awaited event "
                    "triggered (deadlock?)"
                )
        # The awaited event consumed any failure it represents.
        self._failures = [f for f in self._failures if f.process is not until]
        if until.exception is not None:
            self._abort_open_process_spans()
            raise until.exception
        return until.value

    def _abort_open_process_spans(self) -> None:
        """Close span records of processes abandoned by a dying run.

        When the awaited process fails (or the schedule deadlocks),
        sibling processes are never resumed again; without this their
        spans would stay open forever and a traced failing run would
        leak unbalanced spans.
        """
        if not self._tracing:
            return
        for span in self._tracer.spans:
            if span.category == "sim.process" and not span.finished:
                self._tracer.end(span, status="aborted")

    def _raise_orphan_failures(self) -> None:
        """Surface crashes of processes nothing ever waited on.

        The Zen of Python: errors should never pass silently.
        """
        unwaited = [f for f in self._failures if f.process.state is PROCESSED]
        self._failures = [f for f in self._failures if f not in unwaited]
        if unwaited:
            first = unwaited[0]
            raise ProcessFailed(
                f"process {first.process.name!r} failed with "
                f"{type(first.exc).__name__}: {first.exc}"
            ) from first.exc


class ProcessFailure:
    """Record of a process that terminated with an exception."""

    __slots__ = ("process", "exc")

    def __init__(self, process: Process, exc: BaseException) -> None:
        self.process = process
        self.exc = exc
