"""Compact CLI specs for memory policies: ``--mem "on,ram=2GiB"``.

The grammar is the field table below; ``repro mem`` prints it with the
defaults, and ``repro mem SPEC`` prints the policy a spec expands to.
"""

from __future__ import annotations

from repro.config import MemoryConfig
from repro.errors import MemSpecError
from repro.layer import Field, Grammar, finite, size

__all__ = [
    "MEM_GRAMMAR",
    "parse_mem_spec",
]


def _rate(text: str) -> float:
    return float(size(text))


MEM_GRAMMAR = Grammar(
    noun="memory",
    error=MemSpecError,
    flags="enable / disable spilling + backpressure (default: off)",
    fields=(
        Field("ram", "node_ram_bytes", size, "SIZE",
              "clamp every node's RAM (e.g. 2gib, 512mib, 1.5gb)"),
        Field("spill", "spill_watermark", finite, "FRACTION",
              "start spilling above this fraction of RAM (default 0.8)"),
        Field("admit", "admission_watermark", finite, "FRACTION",
              "block admissions above this fraction (default 0.95)"),
        Field("write_bw", "spill_write_bytes_per_s", _rate, "SIZE",
              "spill write bandwidth per second (default 100mib)"),
        Field("read_bw", "spill_read_bytes_per_s", _rate, "SIZE",
              "restore read bandwidth per second (default 100mib)"),
        Field("base", "spill_base_s", finite, "SECONDS",
              "fixed per-spill/restore latency (default 0.002)"),
    ),
    example="--mem on,ram=2gib,spill=0.7,admit=0.9",
)


def parse_mem_spec(spec: str) -> MemoryConfig:
    """Parse a ``--mem`` spec string into a :class:`MemoryConfig`.

    >>> parse_mem_spec("on,ram=2GiB").enabled
    True
    """
    return MEM_GRAMMAR.build(spec, MemoryConfig)
