"""Compact CLI specs for cache policies: ``--cache "on,cap=1GiB"``.

The grammar is the field table below; ``repro cache`` prints it with
the defaults, and ``repro cache SPEC`` prints the policy a spec expands
to.
"""

from __future__ import annotations

from repro.config import CacheConfig
from repro.errors import CacheSpecError
from repro.layer import Field, Grammar, finite, size

__all__ = ["CACHE_GRAMMAR", "parse_cache_spec"]

CACHE_GRAMMAR = Grammar(
    noun="cache",
    error=CacheSpecError,
    flags="enable / disable result caching (default: off)",
    fields=(
        Field("cap", "capacity_bytes", size, "SIZE",
              "per-node capacity, LRU-evicted (e.g. 1gib, 256mib)"),
        Field("lookup", "lookup_s", finite, "SECONDS",
              "virtual cost charged per cache hit (default 0.0001)"),
        Field("epoch", "epoch", int, "N",
              "generation counter; bump to invalidate everything"),
    ),
    example="--cache on,cap=1gib,lookup=0.0001",
)


def parse_cache_spec(spec: str) -> CacheConfig:
    """Parse a ``--cache`` spec string into a :class:`CacheConfig`.

    >>> parse_cache_spec("on,cap=1GiB").enabled
    True
    """
    return CACHE_GRAMMAR.build(spec, CacheConfig)
