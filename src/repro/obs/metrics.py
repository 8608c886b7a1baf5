"""Labelled counters, gauges and histograms for the observability layer.

A :class:`MetricsRegistry` is a flat, deterministic store of numeric
instruments keyed by ``(kind, name, labels)``.  Instrumentation sites
across the simulators record into it:

* ``serialize.bytes{codec=..., direction=...}`` — bytes through each codec;
* ``network.bytes{link=...}`` — bytes moved per node pair;
* ``node.busy_s{node=...}`` — CPU-busy virtual seconds per node;
* ``objectstore.put.bytes`` / ``objectstore.get.bytes`` — store traffic;
* ``workflow.batches{link=...}`` — batches per workflow channel;
* ``workflow.queue_depth{link=...}`` — channel occupancy histogram.

Everything is plain Python with zero dependencies; values are exact
(ints stay ints) so tests can assert equality against independent sums.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    """Canonical, hashable form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(labels: LabelKey) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class Counter:
    """A monotonically increasing numeric total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def add(self, amount: float) -> None:
        """Add ``amount`` (must be >= 0) to the running total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative add {amount}")
        self.value += amount

    def inc(self) -> None:
        """Add one."""
        self.value += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}{_format_labels(self.labels)}={self.value}>"


class Gauge:
    """A point-in-time value; remembers its high-water mark."""

    __slots__ = ("name", "labels", "value", "max_value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0
        self.max_value: float = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}{_format_labels(self.labels)}={self.value}>"


class Histogram:
    """Streaming summary of observed values (count/sum/min/max)."""

    __slots__ = ("name", "labels", "count", "total", "min", "max")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total: float = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Histogram {self.name}{_format_labels(self.labels)} "
            f"n={self.count} mean={self.mean}>"
        )


#: Label value types whose equal values always have equal text, so a
#: call's own spelling of them may stand for their canonical key.  Not
#: ``float``: ``0.0 == -0.0``, and a NaN equals nothing, itself included.
_SPELLABLE = frozenset({str, int, bool, type(None)})


class MetricsRegistry:
    """Get-or-create store of instruments, deterministic iteration order."""

    __slots__ = ("_instruments", "_handles")

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, str, LabelKey], Any] = {}
        #: Labelled instruments by the call's own spelling: kind, name,
        #: the labels as passed, then their value types (``1``, ``1.0``
        #: and ``True`` compare equal but label different series).
        self._handles: Dict[tuple, Any] = {}

    # -- get-or-create -----------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create("counter", Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create("gauge", Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get_or_create("histogram", Histogram, name, labels)

    def _get_or_create(self, kind: str, cls: type, name: str, labels: Dict) -> Any:
        # Unlabelled metrics (the majority of traced-path calls) skip
        # the sort/stringify canonicalisation entirely; a labelled call
        # pays it once per spelling.
        if not labels:
            return self._resolve(kind, cls, name, ())
        spelling = (kind, name, *labels.items(), *map(type, labels.values()))
        try:
            instrument = self._handles.get(spelling)
        except TypeError:  # an unhashable label value
            return self._resolve(kind, cls, name, _label_key(labels))
        if instrument is None:
            instrument = self._resolve(kind, cls, name, _label_key(labels))
            if all(type(value) in _SPELLABLE for value in labels.values()):
                self._handles[spelling] = instrument
        return instrument

    def _resolve(self, kind: str, cls: type, name: str, labels: LabelKey) -> Any:
        key = (kind, name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, labels)
            self._instruments[key] = instrument
        return instrument

    # -- queries -----------------------------------------------------------

    def counters(self, name: str) -> List[Counter]:
        """Every labelled counter series of ``name``."""
        return [
            inst
            for (kind, metric, _l), inst in self._instruments.items()
            if kind == "counter" and metric == name
        ]

    def total(self, name: str) -> float:
        """Sum of a counter metric across all label sets (0 if absent)."""
        return sum(counter.value for counter in self.counters(name))

    def value(self, name: str, **labels: Any) -> float:
        """A single counter series' value (0 if the series is absent)."""
        key = ("counter", name, _label_key(labels))
        instrument = self._instruments.get(key)
        return instrument.value if instrument is not None else 0

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-serializable dump: ``{kind: {"name{labels}": value}}``."""
        out: Dict[str, Dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for (kind, name, labels), inst in sorted(
            self._instruments.items(), key=lambda item: item[0]
        ):
            series = name + _format_labels(labels)
            if kind == "counter":
                out["counters"][series] = inst.value
            elif kind == "gauge":
                out["gauges"][series] = {"value": inst.value, "max": inst.max_value}
            else:
                out["histograms"][series] = {
                    "count": inst.count,
                    "total": inst.total,
                    "min": inst.min,
                    "max": inst.max,
                }
        return out

    def clear(self) -> None:
        self._instruments.clear()
        self._handles.clear()


class _NullInstrument:
    """Shared sink for the null registry: accepts and discards records."""

    __slots__ = ()
    name = ""
    labels: LabelKey = ()
    value = 0
    max_value = 0
    count = 0
    total = 0
    min = None
    max = None
    mean = None

    def add(self, amount: float) -> None:
        pass

    def inc(self) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def record(self, value: float) -> None:
        pass


class _NullMetricsRegistry(MetricsRegistry):
    """Registry that records nothing (backs the null tracer)."""

    _SINK = _NullInstrument()

    def counter(self, name: str, **labels: Any) -> Counter:  # type: ignore[override]
        return self._SINK  # type: ignore[return-value]

    def gauge(self, name: str, **labels: Any) -> Gauge:  # type: ignore[override]
        return self._SINK  # type: ignore[return-value]

    def histogram(self, name: str, **labels: Any) -> Histogram:  # type: ignore[override]
        return self._SINK  # type: ignore[return-value]


#: Singleton null registry used by the null tracer.
NULL_METRICS = _NullMetricsRegistry()
