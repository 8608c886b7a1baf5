"""Deterministic, serializable fault schedules.

A :class:`FaultSchedule` is an immutable list of :class:`FaultEvent`
records pinned to *virtual* timestamps.  Because the simulation clock is
deterministic, replaying the same schedule against the same workload
produces an identical recovery timeline — the property that makes
script-vs-workflow recovery cost a measurable quantity rather than an
anecdote (the paper's Section III-A error-handling comparison, made
quantitative).

Schedules come from three places:

* :meth:`FaultSchedule.generate` — seeded pseudo-random generation with
  per-kind counts (``random.Random(seed)``; bit-stable across runs);
* :meth:`FaultSchedule.from_spec` — a compact ``key=value`` string for
  the CLI (``--faults "seed=7,tasks=3,nodes=1"``), or a path to a JSON
  file produced by :meth:`FaultSchedule.to_json`;
* explicit construction in tests.

Fault kinds
-----------
``task``
    The next matching script-runtime task execution raises
    :class:`repro.errors.InjectedFault` after ``delay_s`` of progress.
``operator``
    The next consumed batch of the matching workflow operator crashes
    mid-batch; the instance restores from its last checkpoint.
``node``
    The node is down for ``duration_s`` starting at ``at_s``: replicas
    hosted there are lost, in-flight tasks fail at their next timed
    checkpoint, and new dispatches to it fail until the window closes.
``link``
    Network transfers starting inside the window take ``factor`` times
    longer (a flap is a short window with a large factor).
``replica``
    One replica of the matching stored object is dropped at ``at_s``
    (never the last copy of an object without lineage).
``oom``
    The matching node's RAM ceiling is divided by ``factor`` at
    ``at_s``.  With the :mod:`repro.mem` policy enabled, resident
    replicas are spilled to disk until usage fits under the new
    ceiling; with it dormant, the next allocation that does not fit
    fails hard (the seed behaviour on a suddenly smaller machine).
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import FaultSpecError
from repro.layer import Field, Grammar, finite

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "FAULT_KINDS",
    "FAULT_GRAMMAR",
    "FAULT_SPEC_HINT",
]

FAULT_KINDS = ("task", "operator", "node", "link", "replica", "oom")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` is an ``fnmatch``-style glob matched against task labels
    (``task``), operator ids (``operator``), node names (``node`` /
    ``replica``'s host) or object-ref labels (``replica``).
    """

    at_s: float
    kind: str
    target: str = "*"
    #: Outage / degradation window length (node, link).
    duration_s: float = 0.0
    #: Transfer-time multiplier while a ``link`` window is open.
    factor: float = 1.0
    #: Virtual seconds of progress a poisoned task makes before raising.
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; valid: {FAULT_KINDS}"
            )
        if self.at_s < 0:
            raise FaultSpecError(f"fault time must be >= 0, got {self.at_s}")
        if self.duration_s < 0:
            raise FaultSpecError(f"negative duration: {self.duration_s}")
        if self.factor < 1.0:
            raise FaultSpecError(
                f"{self.kind} factor must be >= 1, got {self.factor}"
            )
        if self.delay_s < 0:
            raise FaultSpecError(f"negative delay: {self.delay_s}")

    @property
    def end_s(self) -> float:
        """Close of the outage/degradation window (== at_s if none)."""
        return self.at_s + self.duration_s


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, immutable collection of fault events."""

    events: Tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None
    #: Free-form provenance (the spec string, generator profile, ...).
    note: str = ""

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.at_s, FAULT_KINDS.index(e.kind)))
        )
        object.__setattr__(self, "events", ordered)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def of_kind(self, kind: str) -> List[FaultEvent]:
        if kind not in FAULT_KINDS:
            raise FaultSpecError(f"unknown fault kind {kind!r}")
        return [event for event in self.events if event.kind == kind]

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls) -> "FaultSchedule":
        """A schedule with no events (the injector stays dormant)."""
        return cls()

    @classmethod
    def generate(
        cls,
        seed: int,
        horizon_s: float = 60.0,
        tasks: int = 0,
        operators: int = 0,
        nodes: int = 0,
        links: int = 0,
        replicas: int = 0,
        ooms: int = 0,
        oom_factor: float = 4.0,
        node_names: Iterable[str] = ("worker-0", "worker-1", "worker-2", "worker-3"),
        task_target: str = "*",
        operator_target: str = "*",
        replica_target: str = "*",
        outage_s: float = 3.0,
        link_factor: float = 8.0,
        note: str = "",
    ) -> "FaultSchedule":
        """Seeded pseudo-random schedule; identical for identical args.

        Counts are per kind and must be >= 0, as must ``horizon_s``;
        timestamps are uniform over ``[0.05, 0.95] * horizon_s`` so
        faults land inside the run, not at its edges.  Node and link
        windows last ``uniform(0.5, outage_s)`` seconds, so ``outage_s``
        must be >= 0.5.  Node targets cycle deterministically through
        ``node_names``.
        """
        counts = dict(tasks=tasks, operators=operators, nodes=nodes, links=links,
                      replicas=replicas, ooms=ooms)
        for kind, count in counts.items():
            if count < 0:
                raise ValueError(f"{kind}: a fault count must be >= 0, got {count}")
        if horizon_s < 0:
            raise ValueError(f"horizon: must be >= 0, got {horizon_s}")
        if outage_s < 0.5:
            raise ValueError(
                f"outage: must be >= 0.5 (the shortest window), got {outage_s}"
            )
        rng = random.Random(seed)
        names = list(node_names)
        events: List[FaultEvent] = []

        def stamp() -> float:
            return round(rng.uniform(0.05, 0.95) * horizon_s, 6)

        for _ in range(tasks):
            events.append(
                FaultEvent(
                    stamp(),
                    "task",
                    target=task_target,
                    delay_s=round(rng.uniform(0.0, 0.2), 6),
                )
            )
        for _ in range(operators):
            events.append(FaultEvent(stamp(), "operator", target=operator_target))
        for index in range(nodes):
            events.append(
                FaultEvent(
                    stamp(),
                    "node",
                    target=names[index % len(names)],
                    duration_s=round(rng.uniform(0.5, outage_s), 6),
                )
            )
        for _ in range(links):
            events.append(
                FaultEvent(
                    stamp(),
                    "link",
                    duration_s=round(rng.uniform(0.5, outage_s), 6),
                    factor=link_factor,
                )
            )
        for _ in range(replicas):
            events.append(FaultEvent(stamp(), "replica", target=replica_target))
        for index in range(ooms):
            events.append(
                FaultEvent(
                    stamp(),
                    "oom",
                    target=names[index % len(names)],
                    factor=oom_factor,
                )
            )
        return cls(events=tuple(events), seed=seed, note=note)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultSchedule":
        """Parse a CLI spec: ``key=value[,key=value...]`` or a JSON path.

        Keys are the rows of :data:`FAULT_GRAMMAR`; ``seed`` is required
        for the key=value form.

        >>> FaultSchedule.from_spec("seed=7,tasks=2,nodes=1").seed
        7
        """
        spec = spec.strip()
        candidate = Path(spec)
        if spec.endswith(".json") or candidate.is_file():
            try:
                return cls.from_json(
                    json.loads(candidate.read_text(encoding="utf-8"))
                )
            except OSError as exc:
                raise FaultSpecError(
                    f"cannot read fault schedule {spec!r}: {exc}"
                ) from None
            except json.JSONDecodeError as exc:
                # Without this, a truncated or hand-edited schedule file
                # escaped as a raw json traceback instead of exit-code-2
                # CLI diagnostics.
                raise FaultSpecError(
                    f"fault schedule {spec!r} is not valid JSON: {exc}"
                ) from None

        def from_keywords(seed: Optional[int] = None, **kwargs: Any) -> "FaultSchedule":
            if seed is None:
                raise FaultSpecError("fault spec needs a seed (e.g. 'seed=7,tasks=2')")
            return cls.generate(seed, note=spec, **kwargs)

        return FAULT_GRAMMAR.build(spec, from_keywords)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """JSON-serializable dict; round-trips through :meth:`from_json`."""
        return {
            "seed": self.seed,
            "note": self.note,
            "events": [asdict(event) for event in self.events],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FaultSchedule":
        try:
            events = tuple(FaultEvent(**record) for record in data["events"])
        except (KeyError, TypeError) as exc:
            raise FaultSpecError(f"malformed fault schedule JSON: {exc}") from None
        return cls(events=events, seed=data.get("seed"), note=data.get("note", ""))

    def describe(self) -> str:
        """Aligned text table of the schedule (the CLI's output)."""
        header = (
            f"fault schedule: {len(self.events)} events"
            f"{f' (seed={self.seed})' if self.seed is not None else ''}"
        )
        lines = [header, f"{'t (virtual s)':>14}  {'kind':<9} {'target':<18} detail"]
        for event in self.events:
            if event.kind == "node":
                detail = f"down for {event.duration_s:.2f}s"
            elif event.kind == "link":
                detail = f"{event.factor:.0f}x slower for {event.duration_s:.2f}s"
            elif event.kind == "task":
                detail = f"crash after {event.delay_s:.3f}s of progress"
            elif event.kind == "operator":
                detail = "crash mid-batch, restore from checkpoint"
            elif event.kind == "oom":
                detail = f"clamp RAM ceiling to 1/{event.factor:g}"
            else:
                detail = "drop one replica"
            lines.append(
                f"{event.at_s:>14.3f}  {event.kind:<9} {event.target:<18} {detail}"
            )
        if self.note:
            lines.append(f"note: {self.note}")
        return "\n".join(lines)


#: The ``key=value`` form of :meth:`FaultSchedule.from_spec`: keywords
#: of :meth:`FaultSchedule.generate`.  Rows without a metavar are left
#: out of the one-line synopsis below.
FAULT_GRAMMAR = Grammar(
    noun="fault",
    error=FaultSpecError,
    fields=(
        Field("seed", "seed", int, "N"),
        Field("tasks", "tasks", int, "N"),
        Field("operators", "operators", int, "N"),
        Field("ops", "operators", int),
        Field("nodes", "nodes", int, "N"),
        Field("links", "links", int, "N"),
        Field("replicas", "replicas", int, "N"),
        Field("ooms", "ooms", int, "N"),
        Field("horizon", "horizon_s", finite, "S"),
        Field("outage", "outage_s", finite, "S"),
        Field("link_factor", "link_factor", finite),
        Field("oom_factor", "oom_factor", finite),
        Field("task_target", "task_target", str),
        Field("operator_target", "operator_target", str),
        Field("replica_target", "replica_target", str),
    ),
)

#: Appended to fault-spec parse errors by the CLI (``docs/faults.md``
#: has the prose).
FAULT_SPEC_HINT = (
    "spec grammar: seed=N[,"
    + ",".join(
        f"{field.key}={field.metavar}"
        for field in FAULT_GRAMMAR.fields[1:]
        if field.metavar
    )
    + ",...] or a path to a schedule JSON\n"
    "example: --faults seed=7,tasks=2,nodes=1 (inspect with 'repro faults SPEC')"
)
