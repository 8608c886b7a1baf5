"""The lineage-keyed result cache shared by both engines.

:class:`ResultCache` maps fingerprints (see
:mod:`repro.cache.fingerprint`) to small metadata records — the result
*values* are never stored.  The simulation's real Python computation is
free in virtual time, so on a hit the engine replays the producer
without charging compute/store/transfer costs and is structurally
guaranteed to obtain the same values a miss would.  What the cache
saves, therefore, is exactly the virtual time the paper's experiment
sweeps burn on re-running identical upstream stages.

Entries are organised per node with LRU order: inserting beyond
``capacity_bytes`` evicts the least-recently-hit entries of that node
first.  Eviction composes with ``repro.mem`` — a cached result's RAM
is owned by the object store replica (and may be spilled); evicting
the cache entry only forgets the memoization, never the object.

A :class:`ResultCache` instance deliberately outlives any single
cluster (``install_cache`` keeps one across ``fresh_cluster()``
rebuilds); that is what makes cold-vs-warm sweeps possible.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Union

from repro.config import CacheConfig

__all__ = ["CacheEntry", "ResultCache"]


class CacheEntry:
    """Metadata for one memoized result."""

    __slots__ = ("fingerprint", "nbytes", "node", "kind", "hits")

    def __init__(self, fingerprint: str, nbytes: int, node: str, kind: str) -> None:
        self.fingerprint = fingerprint
        self.nbytes = nbytes
        self.node = node
        self.kind = kind
        self.hits = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheEntry({self.fingerprint[:10]}…, kind={self.kind!r}, "
            f"node={self.node!r}, nbytes={self.nbytes}, hits={self.hits})"
        )


class ResultCache:
    """Fingerprint → metadata map with per-node LRU eviction.

    The tracer argument of :meth:`lookup`/:meth:`insert` is the
    *cluster's* tracer — the cache itself is cluster-independent, so
    telemetry flows through whichever run touches it.
    """

    def __init__(self, config: Optional[Union[CacheConfig, str]] = None) -> None:
        if config is None:
            config = CacheConfig(enabled=True)
        elif isinstance(config, str):
            from repro.cache.spec import parse_cache_spec

            config = parse_cache_spec(config)
        self.config = config
        #: fingerprint -> entry, across all nodes.
        self._entries: Dict[str, CacheEntry] = {}
        #: node -> LRU-ordered fingerprints (oldest first).
        self._node_lru: Dict[str, "OrderedDict[str, CacheEntry]"] = {}
        self._node_bytes: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0

    # -- policy -------------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when lookups should be consulted at all."""
        return self.config.enabled

    @property
    def lookup_s(self) -> float:
        return self.config.lookup_s

    # -- core operations ----------------------------------------------------

    def lookup(self, fingerprint: str, tracer: Any = None) -> Optional[CacheEntry]:
        """Probe for ``fingerprint``; refresh LRU order and stats.

        Returns the entry on a hit, ``None`` on a miss.  The *caller*
        charges ``lookup_s`` on a hit (misses are free, keeping the
        enabled-but-cold path bit-identical to the seed).
        """
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            if tracer is not None and tracer.enabled:
                tracer.metrics.counter("cache.miss").inc()
            return None
        self.hits += 1
        entry.hits += 1
        self._node_lru[entry.node].move_to_end(fingerprint)
        if tracer is not None and tracer.enabled:
            tracer.metrics.counter("cache.hit").inc()
            tracer.metrics.counter("cache.hit.bytes").add(entry.nbytes)
        return entry

    def insert(
        self,
        fingerprint: str,
        nbytes: int = 0,
        node: str = "",
        kind: str = "task",
        tracer: Any = None,
    ) -> List[CacheEntry]:
        """Memoize a result; returns the entries evicted to make room.

        Re-inserting an existing fingerprint refreshes its metadata
        (e.g. after fault-driven re-execution lands the object on a
        different node) without counting as a new insert.
        """
        existing = self._entries.pop(fingerprint, None)
        if existing is not None:
            self._forget(existing)
        entry = CacheEntry(fingerprint, max(0, int(nbytes)), node, kind)
        self._entries[fingerprint] = entry
        lru = self._node_lru.setdefault(node, OrderedDict())
        lru[fingerprint] = entry
        self._node_bytes[node] = self._node_bytes.get(node, 0) + entry.nbytes
        if existing is None:
            self.inserts += 1
            if tracer is not None and tracer.enabled:
                tracer.metrics.counter("cache.insert").inc()
        evicted: List[CacheEntry] = []
        capacity = self.config.capacity_bytes
        if capacity is not None:
            while self._node_bytes.get(node, 0) > capacity and len(lru) > 1:
                victim_fp = next(iter(lru))
                if victim_fp == fingerprint:
                    break
                victim = self._entries.pop(victim_fp)
                self._forget(victim)
                evicted.append(victim)
                self.evictions += 1
                if tracer is not None and tracer.enabled:
                    tracer.metrics.counter("cache.evict").inc()
                    tracer.metrics.counter("cache.evict.bytes").add(victim.nbytes)
        return evicted

    def peek_node(self, fingerprint: str) -> Optional[str]:
        """Node holding a cached result, without touching stats/LRU.

        Used as a placement affinity hint — probing must not perturb
        hit counts or recency, because the placement decision happens
        before the engine decides whether the lookup is charged.
        """
        if not self.active:
            return None
        entry = self._entries.get(fingerprint)
        return entry.node if entry is not None and entry.node else None

    def invalidate(self, fingerprint: str) -> bool:
        """Drop one entry; returns True if it existed."""
        entry = self._entries.pop(fingerprint, None)
        if entry is None:
            return False
        self._forget(entry)
        return True

    def clear(self) -> None:
        """Forget every entry (stats are preserved)."""
        self._entries.clear()
        self._node_lru.clear()
        self._node_bytes.clear()

    def _forget(self, entry: CacheEntry) -> None:
        """Unlist an entry its caller just dropped from the index.

        Every entry is on exactly its node's LRU and counted in exactly
        its node's bytes (``tests/properties/test_cache_props.py``
        checks the law), so both lookups are exact and nothing clamps.
        """
        del self._node_lru[entry.node][entry.fingerprint]
        self._node_bytes[entry.node] -= entry.nbytes

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    @property
    def total_bytes(self) -> int:
        return sum(self._node_bytes.values())

    def node_bytes(self, node: str) -> int:
        return self._node_bytes.get(node, 0)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/insert/eviction counters plus occupancy."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "inserts": self.inserts,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "bytes": self.total_bytes,
        }

    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0
