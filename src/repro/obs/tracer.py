"""Virtual-clock span tracing.

A :class:`Span` is one named interval of *virtual* time (the simulated
cluster's clock, not wall time) with a category, an optional cluster
node, free-form attributes and an optional parent span.  A
:class:`Tracer` collects spans plus a :class:`MetricsRegistry` of
counters, and can either be

* **installed globally** — :func:`install_tracer` makes every cluster
  built afterwards (``build_cluster`` / ``fresh_cluster``) record into
  it; or
* **injected per-run** — pass ``tracer=`` to ``build_cluster``.

Because several clusters may run sequentially against one tracer (an
experiment measures many configurations), the tracer tracks *runs*: a
new run begins every time a cluster attaches its environment, and every
span remembers which run it belongs to.  Exporters use this to keep the
runs' overlapping virtual clocks apart.

The default tracer everywhere is :data:`NULL_TRACER`, whose
``enabled`` flag is False; instrumentation sites guard on it, so an
untraced simulation does no bookkeeping and — crucially — charges
*exactly* the same virtual time as before the observability layer
existed (a regression test asserts bit-identical timings).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.layer import Slot
from repro.obs.metrics import NULL_METRICS, MetricsRegistry

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "TraceRun",
    "NULL_TRACER",
    "install_tracer",
    "uninstall_tracer",
    "current_tracer",
    "tracing",
]


class Span:
    """One interval of virtual time.

    ``end_s`` is ``None`` while the span is open.  Attributes are
    free-form and JSON-serializable by convention (they land in the
    Chrome trace's ``args``).
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "run_id",
        "name",
        "category",
        "node",
        "start_s",
        "end_s",
        "attrs",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        category: str,
        node: str,
        start_s: float,
        run_id: int,
        parent_id: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.run_id = run_id
        self.name = name
        self.category = category
        self.node = node
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.attrs: Dict[str, Any] = attrs or {}

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Virtual seconds covered; 0.0 while the span is still open."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.end_s:.6f}" if self.end_s is not None else "..."
        return (
            f"<Span #{self.span_id} {self.category}:{self.name} "
            f"[{self.start_s:.6f}, {end}] node={self.node or '-'}>"
        )


class TraceRun:
    """One cluster execution recorded by a tracer."""

    __slots__ = ("run_id", "label")

    def __init__(self, run_id: int, label: str) -> None:
        self.run_id = run_id
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceRun {self.run_id}: {self.label!r}>"


class Tracer:
    """Collects spans and metrics against a simulation's virtual clock.

    The tracer reads time from the environment most recently attached
    via :meth:`attach` (clusters attach themselves at construction).
    Recording is pure bookkeeping: no events are scheduled and no
    virtual time is charged, so tracing never changes simulated
    timings.
    """

    enabled = True

    def __init__(self, capture_timeouts: bool = False) -> None:
        self.spans: List[Span] = []
        self.metrics = MetricsRegistry()
        #: Record a span per ``Timeout`` event (very noisy; off by default).
        self.capture_timeouts = capture_timeouts
        self.runs: List[TraceRun] = []
        self._env: Optional[Any] = None
        self._next_span_id = 0

    # -- clock / runs ------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time of the attached environment (0.0 if none)."""
        return self._env.now if self._env is not None else 0.0

    def attach(self, env: Any, label: Optional[str] = None) -> TraceRun:
        """Begin a new run clocked by ``env``; returns its record.

        Clusters call this at construction, so sequential runs against
        one tracer land in distinct run buckets even though each run's
        virtual clock restarts at zero.
        """
        self._env = env
        run = TraceRun(len(self.runs), label or f"run-{len(self.runs)}")
        self.runs.append(run)
        return run

    def label_run(self, label: str) -> None:
        """Name the current run (e.g. ``"gotta/script"``); idempotent."""
        if not self.runs:
            self.runs.append(TraceRun(0, label))
        else:
            self.runs[-1].label = label

    def _current_run_id(self) -> int:
        if not self.runs:
            self.runs.append(TraceRun(0, "run-0"))
        return self.runs[-1].run_id

    # -- spans -------------------------------------------------------------

    def start(
        self,
        name: str,
        category: str = "",
        node: str = "",
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span at the current virtual time."""
        span = Span(
            span_id=self._next_span_id,
            name=name,
            category=category,
            node=node,
            start_s=self.now,
            run_id=self._current_run_id(),
            parent_id=parent.span_id if parent is not None else None,
            attrs=attrs or None,
        )
        self._next_span_id += 1
        self.spans.append(span)
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close ``span`` at the current virtual time."""
        if span.end_s is not None:
            raise ValueError(f"span already ended: {span!r}")
        span.end_s = self.now
        if attrs:
            span.attrs.update(attrs)
        return span

    def record_complete(
        self,
        name: str,
        category: str = "",
        node: str = "",
        start_s: float = 0.0,
        end_s: float = 0.0,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-bounded interval (e.g. a scheduled timeout)."""
        span = Span(
            span_id=self._next_span_id,
            name=name,
            category=category,
            node=node,
            start_s=start_s,
            run_id=self._current_run_id(),
            parent_id=parent.span_id if parent is not None else None,
            attrs=attrs or None,
        )
        span.end_s = end_s
        self._next_span_id += 1
        self.spans.append(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "",
        node: str = "",
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """``with tracer.span(...) as sp:`` — opens and closes around the block."""
        sp = self.start(name, category=category, node=node, parent=parent, **attrs)
        try:
            yield sp
        finally:
            self.end(sp)

    # -- queries -----------------------------------------------------------

    def finished_spans(
        self,
        category: Optional[str] = None,
        run_id: Optional[int] = None,
    ) -> List[Span]:
        """Closed spans, optionally filtered by category and/or run."""
        return [
            span
            for span in self.spans
            if span.finished
            and (category is None or span.category == category)
            and (run_id is None or span.run_id == run_id)
        ]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def clear(self) -> None:
        """Drop all recorded spans, metrics and runs."""
        self.spans.clear()
        self.metrics.clear()
        self.runs.clear()
        self._next_span_id = 0


class NullTracer:
    """The do-nothing tracer installed by default everywhere.

    ``enabled`` is False; instrumentation sites check the flag and skip
    all bookkeeping, so the null tracer's methods exist only as a
    safety net for unguarded calls.
    """

    enabled = False
    capture_timeouts = False
    metrics = NULL_METRICS
    spans: List[Span] = []
    runs: List[TraceRun] = []

    _NULL_SPAN = Span(-1, "null", "null", "", 0.0, run_id=-1)

    @property
    def now(self) -> float:
        return 0.0

    def attach(self, env: Any, label: Optional[str] = None) -> TraceRun:
        return TraceRun(-1, "null")

    def label_run(self, label: str) -> None:
        pass

    def start(self, name: str, **kwargs: Any) -> Span:
        return self._NULL_SPAN

    def end(self, span: Span, **attrs: Any) -> Span:
        return span

    def record_complete(self, name: str, **kwargs: Any) -> Span:
        return self._NULL_SPAN

    @contextmanager
    def span(self, name: str, **kwargs: Any) -> Iterator[Span]:
        yield self._NULL_SPAN

    def finished_spans(self, category: Optional[str] = None,
                       run_id: Optional[int] = None) -> List[Span]:
        return []

    def children_of(self, span: Span) -> List[Span]:
        return []

    def clear(self) -> None:
        pass


#: Shared singleton; ``Environment.tracer`` defaults to this.
NULL_TRACER = NullTracer()

#: The globally installed tracer, if any: the default for clusters
#: built afterwards (else :data:`NULL_TRACER`).
_slot = Slot(
    lambda tracer: tracer if tracer is not None else Tracer(), default=NULL_TRACER
)
install_tracer = _slot.install
uninstall_tracer = _slot.uninstall
current_tracer = _slot.current
#: ``with tracing() as tracer: ...`` (a fresh :class:`Tracer` unless one is given).
tracing = _slot.scoped
