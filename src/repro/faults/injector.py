"""The runtime half of fault injection: applying a schedule to a run.

A :class:`FaultInjector` wraps one :class:`FaultSchedule` and answers
the questions the engines ask at their *checkpoints* (timed-primitive
boundaries — task dispatch, compute completion, batch consumption,
network-transfer start):

* "should this task execution crash?"          (:meth:`take_task_fault`)
* "should this operator batch crash?"          (:meth:`take_operator_fault`)
* "is this node down right now?"               (:meth:`node_down`)
* "did this node crash while I was computing?" (:meth:`node_crashed_between`)
* "how degraded is the network right now?"     (:meth:`link_factor`)

Everything is pure bookkeeping against the virtual clock, so two runs
of the same workload under the same schedule take identical decisions
at identical virtual timestamps.  The injector follows the tracer's
installation pattern (global install / per-cluster injection / a no-op
:data:`NULL_INJECTOR` default); ``Environment.faults`` carries it to
every instrumentation site.  With an empty schedule ``active`` is
False and every site short-circuits, keeping untraced, unfaulted runs
bit-identical to the seed timings.

Timed effects (node outages, replica loss) are *applied* by a small
simulation process the injector schedules when a cluster attaches it —
replica drops and node-outage bookkeeping happen at their scheduled
virtual instant, not lazily at the next query.
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import Any, List, Optional, Tuple

from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.layer import Slot

__all__ = [
    "FaultInjector",
    "NullInjector",
    "NULL_INJECTOR",
    "install_faults",
    "uninstall_faults",
    "current_injector",
    "faults_injected",
]


class FaultInjector:
    """Applies one :class:`FaultSchedule` to one (or more) runs.

    Like the tracer, one injector may serve several sequential cluster
    runs (an experiment measures many configurations); :meth:`attach`
    resets the consumed-event bookkeeping so every run replays the full
    schedule from virtual time zero.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        #: False for an empty schedule: every check short-circuits and
        #: no virtual time can possibly be charged.
        self.active = bool(schedule)
        self._env: Optional[Any] = None
        self._stores: List[Any] = []
        self._memories: List[Any] = []
        self._pending_tasks: List[FaultEvent] = []
        self._pending_operators: List[FaultEvent] = []
        #: (node, start, end) outage windows, fixed at construction.
        self.node_windows: Tuple[Tuple[str, float, float], ...] = tuple(
            (e.target, e.at_s, e.end_s) for e in schedule.of_kind("node")
        )
        self.link_windows: Tuple[Tuple[float, float, float], ...] = tuple(
            (e.at_s, e.end_s, e.factor) for e in schedule.of_kind("link")
        )
        #: Telemetry mirrored into tracer counters by the engines.
        self.injected = 0
        self.skipped = 0
        #: Recovery attempts (task and rebuild retries, operator
        #: restarts), bumped by the engines so experiments can report
        #: them per run.
        self.retries = 0
        #: Lineage rebuilds of lost objects, one per rebuild.
        self.reconstructions = 0

    # -- lifecycle ---------------------------------------------------------

    def attach(self, env: Any) -> None:
        """Bind to a fresh environment; restarts the schedule replay.

        Clusters call this at construction (mirroring ``Tracer.attach``).
        Schedules a timer process for node-crash and replica-loss
        events so their effects land at the scheduled virtual time.
        """
        self._env = env
        self._stores = []
        self._memories = []
        self._pending_tasks = list(self.schedule.of_kind("task"))
        self._pending_operators = list(self.schedule.of_kind("operator"))
        if not self.active:
            return
        timed = sorted(
            self.schedule.of_kind("node")
            + self.schedule.of_kind("replica")
            + self.schedule.of_kind("oom"),
            key=lambda e: e.at_s,
        )
        if timed:
            env.process(self._apply_timed(env, timed))

    def register_store(self, store: Any) -> None:
        """Object stores register to receive replica-loss callbacks."""
        if store not in self._stores:
            self._stores.append(store)

    def register_memory(self, memory: Any) -> None:
        """Memory managers register to receive ``oom`` clamp callbacks."""
        if memory not in self._memories:
            self._memories.append(memory)

    def _apply_timed(self, env: Any, events: List[FaultEvent]):
        """Simulation process applying node/replica events on time."""
        for event in events:
            if event.at_s > env.now:
                yield env.timeout(event.at_s - env.now)
            if event.kind == "node":
                dropped = 0
                for store in self._stores:
                    dropped += store.evict_node(event.target)
                self.injected += 1
                tracer = env.tracer
                if tracer.enabled:
                    tracer.metrics.counter("faults.injected", kind="node").inc()
                    tracer.record_complete(
                        f"node-down:{event.target}",
                        category="faults.outage",
                        node=event.target,
                        start_s=event.at_s,
                        end_s=event.end_s,
                        replicas_lost=dropped,
                    )
            elif event.kind == "oom":
                for memory in self._memories:
                    yield from memory.clamp_matching(event.target, event.factor)
                self.injected += 1
                tracer = env.tracer
                if tracer.enabled:
                    tracer.metrics.counter("faults.injected", kind="oom").inc()
                    tracer.record_complete(
                        f"oom:{event.target}",
                        category="faults.oom",
                        node=event.target,
                        start_s=event.at_s,
                        end_s=env.now,
                        factor=event.factor,
                    )
            else:  # replica
                dropped = 0
                for store in self._stores:
                    dropped += store.drop_replica(event.target)
                    if dropped:
                        break
                if dropped:
                    self.injected += 1
                else:
                    self.skipped += 1
                tracer = env.tracer
                if tracer.enabled and dropped:
                    tracer.metrics.counter(
                        "faults.injected", kind="replica"
                    ).inc()

    # -- script-runtime checks --------------------------------------------

    def take_task_fault(self, label: str, now: float) -> Optional[FaultEvent]:
        """Consume the next due task fault matching ``label``, if any."""
        if not self.active:
            return None
        for index, event in enumerate(self._pending_tasks):
            if event.at_s <= now and fnmatch(label, event.target):
                self.injected += 1
                self._count_injected("task")
                return self._pending_tasks.pop(index)
        return None

    def node_down(self, node: str, now: float) -> bool:
        """True while ``node`` is inside one of its outage windows."""
        if not self.active:
            return False
        return any(
            name == node and start <= now < end
            for name, start, end in self.node_windows
        )

    def node_crashed_between(self, node: str, t0: float, t1: float) -> bool:
        """True if ``node`` crashed in ``(t0, t1]`` (kills in-flight work)."""
        if not self.active:
            return False
        return any(
            name == node and t0 < start <= t1
            for name, start, end in self.node_windows
        )

    # -- workflow checks ---------------------------------------------------

    def take_operator_fault(
        self, operator_id: str, now: float
    ) -> Optional[FaultEvent]:
        """Consume the next due operator fault matching ``operator_id``."""
        if not self.active:
            return None
        for index, event in enumerate(self._pending_operators):
            if event.at_s <= now and fnmatch(operator_id, event.target):
                self.injected += 1
                self._count_injected("operator")
                return self._pending_operators.pop(index)
        return None

    def _count_injected(self, kind: str) -> None:
        if self._env is not None and self._env.tracer.enabled:
            self._env.tracer.metrics.counter("faults.injected", kind=kind).inc()

    # -- network checks ----------------------------------------------------

    def link_factor(self, now: float) -> float:
        """Transfer-time multiplier at ``now`` (1.0 when undegraded)."""
        if not self.active:
            return 1.0
        factor = 1.0
        for start, end, window_factor in self.link_windows:
            if start <= now < end:
                factor = max(factor, window_factor)
        return factor

    @property
    def recovery_actions(self) -> int:
        """Retries plus lineage rebuilds: what a run's summary reports."""
        return self.retries + self.reconstructions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultInjector {len(self.schedule)} events, "
            f"{self.injected} injected, {self.skipped} skipped>"
        )


class NullInjector:
    """The do-nothing injector installed by default everywhere.

    ``active`` is False; every check returns the benign answer without
    touching any state, so unfaulted runs charge exactly the same
    virtual time as before the faults subsystem existed.
    """

    active = False
    schedule = FaultSchedule.empty()
    injected = 0
    skipped = 0
    retries = 0
    node_windows: Tuple = ()
    link_windows: Tuple = ()

    def attach(self, env: Any) -> None:
        pass

    def register_store(self, store: Any) -> None:
        pass

    def register_memory(self, memory: Any) -> None:
        pass

    def take_task_fault(self, label: str, now: float) -> Optional[FaultEvent]:
        return None

    def node_down(self, node: str, now: float) -> bool:
        return False

    def node_crashed_between(self, node: str, t0: float, t1: float) -> bool:
        return False

    def take_operator_fault(
        self, operator_id: str, now: float
    ) -> Optional[FaultEvent]:
        return None

    def link_factor(self, now: float) -> float:
        return 1.0


#: Shared singleton; ``Environment.faults`` defaults to this.
NULL_INJECTOR = NullInjector()

#: The globally installed injector, if any: the default for clusters
#: built afterwards (else :data:`NULL_INJECTOR`).  Takes a
#: :class:`FaultSchedule` (wrapped in a fresh injector) or an injector.
_slot = Slot(
    lambda value: FaultInjector(value) if isinstance(value, FaultSchedule) else value,
    default=NULL_INJECTOR,
)
install_faults = _slot.install
uninstall_faults = _slot.uninstall
current_injector = _slot.current
#: ``with faults_injected(schedule) as injector: ...``
faults_injected = _slot.scoped
