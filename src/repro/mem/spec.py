"""Compact CLI specs for memory policies: ``--mem "on,ram=2GiB"``.

The grammar is the field table below; ``repro mem`` prints it with the
defaults, and ``repro mem SPEC`` prints the policy a spec expands to.
"""

from __future__ import annotations

from repro.config import GIB, KIB, MIB, MemoryConfig
from repro.errors import MemSpecError
from repro.layer import Field, Grammar, finite, size

__all__ = [
    "MEM_GRAMMAR",
    "parse_mem_spec",
    "parse_size",
    "format_size",
    "describe_memory",
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


def parse_size(text: str) -> int:
    """Parse ``"2GiB"`` / ``"512MiB"`` / ``"1048576"`` into bytes."""
    try:
        return size(text)
    except ValueError as exc:
        raise MemSpecError(str(exc)) from None


def format_size(nbytes: int) -> str:
    """Human-readable binary size (exact where possible)."""
    for suffix, value in (("GiB", GIB), ("MiB", MIB), ("KiB", KIB)):
        if nbytes >= value:
            quantity = nbytes / value
            if quantity == int(quantity):
                return f"{int(quantity)}{suffix}"
            return f"{quantity:.2f}{suffix}"
    return f"{nbytes}B"


def parse_mem_spec(spec: str) -> MemoryConfig:
    """Parse a ``--mem`` spec string into a :class:`MemoryConfig`.

    >>> parse_mem_spec("on,ram=2GiB").enabled
    True
    """
    return MEM_GRAMMAR.build(spec, MemoryConfig)


def describe_memory(config: MemoryConfig) -> str:
    """Aligned text description of a policy (the CLI's output)."""
    lines = [
        "memory policy: "
        + ("spilling + backpressure ON" if config.enabled else "dormant (seed path)"),
        f"  node RAM ceiling   {format_size(config.node_ram_bytes) if config.node_ram_bytes is not None else 'testbed default (64GiB)'}",
        f"  spill watermark    {config.spill_watermark:.0%} of ceiling",
        f"  admit watermark    {config.admission_watermark:.0%} of ceiling",
        f"  spill write bw     {format_size(int(config.spill_write_bytes_per_s))}/s",
        f"  spill read bw      {format_size(int(config.spill_read_bytes_per_s))}/s",
        f"  per-spill base     {config.spill_base_s * 1e3:.1f}ms",
    ]
    if not config.enabled and config.node_ram_bytes is not None:
        lines.append(
            "  (RAM override applies even while dormant: allocations that "
            "do not fit fail hard)"
        )
    return "\n".join(lines)
