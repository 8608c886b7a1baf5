"""Compact CLI specs for elasticity: ``--elastic "on,min=1,max=8"``.

The grammar is the field table below; ``repro elastic`` prints it with
the defaults, and ``repro elastic SPEC`` prints the configuration a
spec expands to.
"""

from __future__ import annotations

from typing import Dict

from repro.config import GIB, ElasticConfig, MachineConfig
from repro.errors import ElasticSpecError
from repro.layer import Field, Grammar, choice, finite, on_off

__all__ = [
    "ELASTIC_GRAMMAR",
    "MACHINE_SHAPES",
    "machine_shape",
    "parse_elastic_spec",
]

#: Named machine shapes for heterogeneous fleets.  ``default`` is the
#: paper's testbed VM; the others are the usual cloud families —
#: compute-optimized, burstable, memory-optimized.
MACHINE_SHAPES: Dict[str, MachineConfig] = {
    "default": MachineConfig(),
    "fast": MachineConfig(
        num_cpus=16, ram_bytes=64 * GIB, flops_per_core_per_s=4.0e9
    ),
    "slow": MachineConfig(
        num_cpus=4, ram_bytes=16 * GIB, flops_per_core_per_s=1.0e9
    ),
    "highmem": MachineConfig(
        num_cpus=8, ram_bytes=256 * GIB, flops_per_core_per_s=2.0e9
    ),
}


_shape = choice(
    MACHINE_SHAPES.__contains__,
    f"unknown machine shape {{!r}} (have {', '.join(sorted(MACHINE_SHAPES))})",
)


def machine_shape(name: str) -> MachineConfig:
    """Resolve a shape name; raises :class:`ElasticSpecError`."""
    try:
        return MACHINE_SHAPES[_shape(name)]
    except ValueError as exc:
        raise ElasticSpecError(str(exc)) from None


ELASTIC_GRAMMAR = Grammar(
    noun="elastic",
    error=ElasticSpecError,
    flags="attach / don't attach the autoscaler (default: off)",
    fields=(
        Field("min", "min_nodes", int, "N", "fleet floor, workers (default 1)"),
        Field("max", "max_nodes", int, "N", "fleet ceiling, workers (default 8)"),
        Field("interval", "interval_s", finite, "SECONDS",
              "gauge-evaluation cadence (default 1)"),
        Field("provision", "provision_s", finite, "SECONDS",
              "virtual boot latency per new node (default 10)"),
        Field("up", "up_queue_per_node", finite, "F",
              "scale up above F queued jobs per worker (default 4)"),
        Field("load", "up_load", finite, "FRACTION",
              "... or at this reserved-vCPU load (default 0.9)"),
        Field("ram", "up_ram", finite, "FRACTION",
              "... or at this RAM high-water fraction (default 0.9)"),
        Field("idle", "idle_s", finite, "SECONDS",
              "a node must idle this long to drain (default 3)"),
        Field("cooldown", "cooldown_s", finite, "SECONDS",
              "no scale-down within this of a scale-up (default 5)"),
        Field("step", "step", int, "N",
              "nodes provisioned per scale-up decision (default 1)"),
        Field("shape", "shape", _shape, "NAME",
              "new-node machine shape: default, fast, slow, highmem"),
        Field("drain", "drain", on_off, "on|off",
              "drain (migrate replicas) vs crash-evict (default on)"),
    ),
    example="--elastic on,min=1,max=16,provision=5,shape=fast",
    width=18,
)


def parse_elastic_spec(spec: str) -> ElasticConfig:
    """Parse an ``--elastic`` spec string into an :class:`ElasticConfig`.

    >>> parse_elastic_spec("on,min=2,max=16").max_nodes
    16
    """
    return ELASTIC_GRAMMAR.build(spec, ElasticConfig)
