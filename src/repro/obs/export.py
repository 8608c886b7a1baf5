"""Trace exporters: Chrome ``trace_event`` JSON and text breakdowns.

Two consumers are served:

* :func:`write_chrome_trace` emits the ``traceEvents`` JSON understood
  by ``chrome://tracing`` and https://ui.perfetto.dev — every span
  becomes a complete ("X") event, each run becomes a process lane and
  each cluster node a thread lane, so sequential runs recorded by one
  tracer do not overlap even though each restarts the virtual clock;
* :func:`format_breakdown` renders a hierarchical plain-text report of
  where each run's virtual time went, grouped by span category and
  name — the profiler view the experiment harness and the ``trace``
  CLI subcommand print.

Category totals sum span durations, so with parallelism a category can
exceed the run's wall clock (it is CPU-seconds-like, not wall share);
percentages are still reported against wall time because that is the
question the paper's figures ask ("what fraction of the run is the
object store?").
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.obs.tracer import Span, Tracer

__all__ = [
    "chrome_trace_events",
    "chrome_trace",
    "write_chrome_trace",
    "CategoryStat",
    "RunBreakdown",
    "breakdown",
    "format_breakdown",
]

#: Categories hidden from the text breakdown: ``sim.process``
#: spans wrap nearly every other span (tasks, transfers, instances all
#: run as simulation processes), so showing them would double-count.
DEFAULT_EXCLUDED_CATEGORIES = ("sim.process",)

#: Span names listed under each category of the text breakdown
#: (largest first); the rest are summed into one "... more" row.
TOP_NAMES = 6

#: Categories the breakdown sums into its "object-store + serialization"
#: headline (the paper's Fig 13d mechanism).
STORE_AND_SERIALIZATION_CATEGORIES = ("objectstore", "serialization")


# ---------------------------------------------------------------------------
# Chrome trace_event JSON
# ---------------------------------------------------------------------------


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """Flatten a tracer into Chrome ``trace_event`` dicts.

    Each run maps to one ``pid``; within a run, each node (or, for
    node-less spans, the category) maps to one ``tid``.  Timestamps are
    virtual microseconds.
    """
    events: List[Dict[str, Any]] = []
    lanes: Dict[Tuple[int, str], int] = {}
    for run in tracer.runs:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": run.run_id,
                "tid": 0,
                "ts": 0,
                "args": {"name": run.label},
            }
        )
    for span in tracer.spans:
        if not span.finished:
            continue
        lane_name = span.node or span.category or "main"
        lane_key = (span.run_id, lane_name)
        tid = lanes.get(lane_key)
        if tid is None:
            tid = len([k for k in lanes if k[0] == span.run_id]) + 1
            lanes[lane_key] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": span.run_id,
                    "tid": tid,
                    "ts": 0,
                    "args": {"name": lane_name},
                }
            )
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "ts": span.start_s * 1e6,
            "dur": (span.end_s - span.start_s) * 1e6,
            "pid": span.run_id,
            "tid": tid,
        }
        args = dict(span.attrs)
        if span.parent_id is not None:
            args["parent_span"] = span.parent_id
        if args:
            event["args"] = args
        events.append(event)
    return events


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The full Chrome trace document (events + metrics side-channel)."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "virtual",
            "runs": {str(run.run_id): run.label for run in tracer.runs},
            "metrics": tracer.metrics.snapshot(),
        },
    }


def write_chrome_trace(tracer: Tracer, path: Any) -> Path:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    target = Path(path)
    target.write_text(json.dumps(chrome_trace(tracer)), encoding="utf-8")
    return target


# ---------------------------------------------------------------------------
# Text time-breakdown report
# ---------------------------------------------------------------------------


class CategoryStat:
    """Aggregated span time for one category within one run."""

    __slots__ = ("category", "total_s", "count", "by_name")

    def __init__(self, category: str) -> None:
        self.category = category
        self.total_s = 0.0
        self.count = 0
        self.by_name: Dict[str, Tuple[float, int]] = {}

    def add(self, span: Span) -> None:
        duration = span.duration_s
        self.total_s += duration
        self.count += 1
        total, count = self.by_name.get(span.name, (0.0, 0))
        self.by_name[span.name] = (total + duration, count + 1)


class RunBreakdown:
    """Where one run's virtual time went, by span category."""

    def __init__(self, run_id: int, label: str) -> None:
        self.run_id = run_id
        self.label = label
        self.wall_s = 0.0
        self.categories: Dict[str, CategoryStat] = {}

    def category_total(self, category: str) -> float:
        stat = self.categories.get(category)
        return stat.total_s if stat is not None else 0.0

    def fraction(self, categories: Sequence[str]) -> float:
        """Combined category time as a fraction of the run's wall time."""
        if self.wall_s <= 0:
            return 0.0
        return sum(self.category_total(c) for c in categories) / self.wall_s

    @property
    def store_and_serialization_fraction(self) -> float:
        """Fraction of wall time in object-store + serialization spans."""
        return self.fraction(STORE_AND_SERIALIZATION_CATEGORIES)


def breakdown(tracer: Tracer) -> List[RunBreakdown]:
    """Aggregate the tracer's finished spans per run and category."""
    runs: Dict[int, RunBreakdown] = {
        run.run_id: RunBreakdown(run.run_id, run.label) for run in tracer.runs
    }
    extents: Dict[int, Tuple[float, float]] = {}
    for span in tracer.spans:
        if not span.finished:
            continue
        run = runs.get(span.run_id)
        if run is None:  # span recorded before any attach
            run = runs[span.run_id] = RunBreakdown(span.run_id, f"run-{span.run_id}")
        category = span.category or "(uncategorized)"
        stat = run.categories.get(category)
        if stat is None:
            stat = run.categories[category] = CategoryStat(category)
        stat.add(span)
        lo, hi = extents.get(span.run_id, (span.start_s, span.end_s))
        extents[span.run_id] = (min(lo, span.start_s), max(hi, span.end_s))
    for run_id, (lo, hi) in extents.items():
        runs[run_id].wall_s = hi - lo
    return [runs[run_id] for run_id in sorted(runs)]


def format_breakdown(tracer: Tracer) -> str:
    """Render the per-run time breakdown as indented text.

    Each category lists its :data:`TOP_NAMES` largest span names; the
    double-counting :data:`DEFAULT_EXCLUDED_CATEGORIES` are hidden, and
    a run with nothing else is left out.
    """
    lines: List[str] = []
    for run in breakdown(tracer):
        visible = {
            name: stat
            for name, stat in run.categories.items()
            if name not in DEFAULT_EXCLUDED_CATEGORIES
        }
        if not visible:
            continue
        lines.append(f"run {run.run_id} · {run.label} — wall {run.wall_s:.2f}s virtual")
        for name, stat in sorted(
            visible.items(), key=lambda item: -item[1].total_s
        ):
            share = 100.0 * stat.total_s / run.wall_s if run.wall_s > 0 else 0.0
            lines.append(
                f"  {name:<24} {stat.total_s:>10.2f}s  {share:5.1f}%"
                f"  ({stat.count} span{'s' if stat.count != 1 else ''})"
            )
            ranked = sorted(stat.by_name.items(), key=lambda item: -item[1][0])
            for sub_name, (total, count) in ranked[:TOP_NAMES]:
                lines.append(f"    {sub_name:<22} {total:>10.2f}s  (x{count})")
            if len(ranked) > TOP_NAMES:
                rest = sum(total for _n, (total, _c) in ranked[TOP_NAMES:])
                lines.append(
                    f"    ... {len(ranked) - TOP_NAMES} more {rest:>10.2f}s"
                )
        store_frac = run.store_and_serialization_fraction
        if store_frac > 0:
            lines.append(
                "  object-store + serialization: "
                f"{100.0 * store_frac:.1f}% of wall time"
            )
        lines.append("")
    if not lines:
        return "(no finished spans recorded)"
    return "\n".join(lines).rstrip()
