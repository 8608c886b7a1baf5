"""A simulated cluster machine (vCPU pool, RAM) and :func:`charge`, which holds its vCPUs."""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Dict, Generator, Optional

from repro.config import MachineConfig
from repro.errors import InsufficientResources
from repro.sim import Environment, Resource

__all__ = ["Mechanism", "Node", "charge"]


class Mechanism(str, Enum):
    """What a charge pays for; the value is the span category it opens.
    Only mechanisms a charge emits are members; they render as the value."""

    COMPUTE = "compute"
    SERIALIZATION = "serialization"
    CACHE = "cache"
    RECOVERY = "faults.recovery"

    __str__ = str.__str__
    __format__ = str.__format__


class Node:
    """One VM of the paper's testbed (8 vCPUs, 64 GB RAM by default).

    CPU time is the contended resource: processes :func:`charge` a node
    to occupy ``cores`` vCPUs for a duration.
    Co-scheduled work on the same node genuinely queues, which is how
    the simulation reproduces contention effects.

    RAM is tracked as a high-water counter against a mutable ceiling
    (``ram_limit``) — enough to model the paper's observation that
    Ray's object store "required a lot of memory", and to fail loudly
    if a task plan would not fit on the testbed machine.  The ceiling
    starts at the machine's physical RAM; :mod:`repro.mem` may shrink
    it (config override or an injected ``oom`` fault) and, when its
    policy is enabled, turns would-be failures into spilling and
    backpressure instead.
    """

    def __init__(self, env: Environment, name: str, machine: MachineConfig) -> None:
        self.env = env
        self.name = name
        self.machine = machine
        self.cpus = Resource(env, capacity=machine.num_cpus)
        self.ram_used = 0
        self.ram_peak = 0
        #: Largest single allocation ever admitted — with ``ram_peak``,
        #: the two numbers experiments need to pick a shrunken-RAM
        #: configuration that is survivable only by spilling.
        self.largest_alloc = 0
        #: Current RAM ceiling in bytes (see class docstring).
        self.ram_limit = machine.ram_bytes
        self.busy_seconds = 0.0

    @property
    def num_cpus(self) -> int:
        return self.machine.num_cpus

    @property
    def ram_bytes(self) -> int:
        return self.ram_limit

    @property
    def ram_free(self) -> int:
        return self.ram_limit - self.ram_used

    # -- CPU ---------------------------------------------------------------

    def compute(self, duration_s: float, cores: int = 1) -> Generator:
        """Simulation process: hold ``cores`` vCPUs for ``duration_s``.

        The duration is wall time on this node; :func:`charge`, its one
        caller, prices FLOPs at the caller's parallelism first.
        """
        if duration_s < 0:
            raise ValueError(f"negative compute duration: {duration_s}")
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        if cores > self.num_cpus:
            raise InsufficientResources(
                f"node {self.name!r} has {self.num_cpus} vCPUs, requested {cores}"
            )
        request = self.cpus.request(cores)
        try:
            yield request
        except BaseException:
            # The waiting process was killed (fault injection, abort,
            # interpreter teardown): withdraw the request so it neither
            # blocks the vCPU FIFO nor — if already granted — leaks cores.
            request.cancel()
            raise
        started = self.env.now
        try:
            yield self.env.timeout(duration_s)
            # Charge duration_s * cores, not now - started, so the
            # accounting floats stay bit-identical.
            busy = duration_s * cores
        except BaseException:
            # Killed mid-compute: the elapsed slice still burned the
            # vCPUs, so charge it — otherwise utilization gauges
            # under-report exactly when faults are active.
            busy = (self.env.now - started) * cores
            raise
        finally:
            if busy > 0:
                self.busy_seconds += busy
                tracer = self.env.tracer
                if tracer.enabled:
                    tracer.metrics.counter("node.busy_s", node=self.name).add(busy)
            self.cpus.release(cores)

    # -- RAM ---------------------------------------------------------------

    def allocate_ram(self, nbytes: int) -> None:
        """Reserve ``nbytes`` of RAM; raises if the node would swap."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if nbytes > self.ram_free:
            raise InsufficientResources(
                f"node {self.name!r}: allocation of {nbytes} bytes exceeds "
                f"free RAM ({self.ram_free} of {self.ram_bytes} bytes)"
            )
        self.ram_used += nbytes
        self.ram_peak = max(self.ram_peak, self.ram_used)
        if nbytes > self.largest_alloc:
            self.largest_alloc = nbytes
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.metrics.gauge("mem.node_rss", node=self.name).set(self.ram_used)
            tracer.metrics.gauge("mem.high_water", node=self.name).set(
                self.ram_peak
            )

    def free_ram(self, nbytes: int) -> None:
        """Release a prior allocation."""
        if nbytes < 0:
            raise ValueError(f"negative free: {nbytes}")
        if nbytes > self.ram_used:
            raise ValueError(
                f"node {self.name!r}: freeing {nbytes} bytes but only "
                f"{self.ram_used} are allocated"
            )
        self.ram_used -= nbytes
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.metrics.gauge("mem.node_rss", node=self.name).set(self.ram_used)

    def __repr__(self) -> str:
        return (
            f"<Node {self.name}: {self.cpus.in_use}/{self.num_cpus} vCPUs busy, "
            f"{self.ram_used / 2**20:.0f} MiB RAM used>"
        )


def charge(
    node: Node, seconds: float = 0.0, *, flops: float = 0.0, cores: int = 1,
    efficiency: float = 1.0, span: Optional[str] = None,
    mechanism: Optional[Mechanism] = None, parent: Any = None,
    attrs: Optional[Dict[str, Any]] = None, account: Any = None,
    then: Optional[Callable[[float], Generator]] = None,
) -> Generator:
    """Simulation process: hold ``cores`` of ``node`` for ``seconds`` or ``flops``.

    Each caller passes its own policy (cores, ``efficiency``, span,
    account); nothing here knows which engine called.  FLOPs are priced
    only here, on the node's own machine; with ``efficiency`` 1.0 the
    divisor is exactly ``cores`` times the per-core rate.  When tracing
    is on and ``span`` names one, the hold runs in a span of category
    ``mechanism`` under ``parent`` carrying ``attrs``.  A zero-second
    charge holds nothing but still opens its span.  ``account`` (any
    object with a ``busy_s`` float) is credited ``seconds * cores``
    before the hold; ``then(start)`` runs after it, inside the span.
    """
    if flops:
        seconds = flops / (
            node.machine.flops_per_core_per_s * (1.0 + (cores - 1) * efficiency)
        )
    env = node.env
    opened = None
    if span is not None:
        tracer = env.tracer
        if tracer.enabled:
            opened = tracer.start(
                span, category=mechanism.value, node=node.name, parent=parent,
                **(attrs or {}),
            )
    start = env.now if then is not None else None
    try:
        if seconds:
            if account is not None:
                account.busy_s += seconds * cores
            yield from node.compute(seconds, cores=cores)
        if then is not None:
            yield from then(start)
    finally:
        if opened is not None:
            tracer.end(opened)
