"""Wall-clock spans and profiler folding for the traced pass.

Two sources of per-layer *wall* numbers, both taken from outside the
program:

* :class:`SpanRecorder` — spans the benchmark records around its own
  calls into a layer's public functions (name, start, end, parent,
  workload).  Kept in memory; :func:`chrome_trace` turns them into the
  same Chrome ``trace_event`` JSON ``repro.obs.export`` writes.
* :func:`fold_profile` — ``cProfile`` rows folded to layers by source
  path (``src/repro/<layer>/``), giving ``<layer>.self_s``.

The measurement pass runs with :data:`NO_SPANS`, whose ``span`` does
nothing, so end-to-end numbers are taken with tracing off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Layer given to profiler rows outside ``src/repro`` (interpreter,
#: stdlib, numpy, and the benchmark's own files).
OTHER = "other"


class SpanRecorder:
    """In-memory wall-clock spans with parent links."""

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: ``[name, start_s, end_s, parent_index or None]`` per span.
        self.spans: List[List[Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def totals(self) -> Dict[str, float]:
        """Summed duration per span name."""
        out: Dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out


class _NoSpans:
    """Recorder used with tracing off: ``span`` costs one call."""

    enabled = False
    _NULL = nullcontext()

    def span(self, name: str):
        return self._NULL


NO_SPANS = _NoSpans()


def chrome_trace(spans_by_workload: Dict[str, List[List[Any]]]) -> Dict[str, Any]:
    """Chrome ``trace_event`` document: one process per workload.

    Each span keeps its index and its parent's in ``args``, so a
    span's self time (duration minus children) can be rebuilt.
    """
    events: List[Dict[str, Any]] = []
    for pid, (workload, spans) in enumerate(spans_by_workload.items()):
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": workload}}
        )
        origin = min((span[1] for span in spans), default=0.0)
        for index, (name, start, end, parent) in enumerate(spans):
            events.append(
                {"ph": "X", "name": name, "cat": name.split(".")[0],
                 "pid": pid, "tid": 0,
                 "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                 "args": {"id": index, "parent": parent, "workload": workload}}
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "wall"},
    }


def fold_profile(
    stats: Dict[Tuple[str, int, str], tuple], src_root: Path
) -> Tuple[Dict[str, float], Dict[Tuple[str, str], Tuple[int, float]]]:
    """Fold ``pstats`` rows to ``{layer: self_s}`` by source path.

    Also returns ``{(path under src/repro, function): (calls, self_s)}``
    for the rows inside ``src/repro`` so single hot functions
    (``estimate_bytes``, ``Tuple.__init__``) can be cited by count.
    """
    layers: Dict[str, float] = {}
    functions: Dict[Tuple[str, str], Tuple[int, float]] = {}
    prefix = str(src_root / "repro") + "/"
    for (filename, _line, func), row in stats.items():
        calls, self_s = row[1], row[2]
        layer = OTHER
        if filename.startswith(prefix):
            path = filename[len(prefix):]
            head = path.split("/", 1)[0]
            # Top-level modules (cli.py, config.py, errors.py) are their
            # own layer, named by the module.
            layer = head[:-3] if head.endswith(".py") else head
            seen = functions.get((path, func), (0, 0.0))
            functions[(path, func)] = (seen[0] + calls, seen[1] + self_s)
        layers[layer] = layers.get(layer, 0.0) + self_s
    return layers, functions


def layer_table(layers: Dict[str, float], overhead_ratio: Optional[float]) -> str:
    """Per-workload ``self_s`` and share table (shares sum to 100 %)."""
    total = sum(layers.values()) or 1.0
    lines = [f"  {'layer':<14} {'self_s':>9} {'share':>7}"]
    for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<14} {self_s:>9.3f} {100 * self_s / total:>6.1f}%")
    lines.append(f"  {'total':<14} {total:>9.3f} {100.0:>6.1f}%")
    if overhead_ratio is not None:
        lines.append(
            f"  trace.overhead_ratio {overhead_ratio:.2f} "
            "(profiled wall / plain wall; traced numbers address a "
            "change, they are never a wall-clock claim)"
        )
    return "\n".join(lines)
