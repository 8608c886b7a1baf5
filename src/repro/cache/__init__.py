"""Lineage-keyed result caching: ``repro.cache``.

The paper's four tasks (DICE, WEF, GOTTA, KGE) are re-run many times
per experiment sweep — every scheduler/memory/fault configuration
recomputes identical upstream stages (dataset parsing, embedding
loads, model forward passes) from scratch.  This package adds the
missing reuse layer:

* :class:`ResultCache` — a fingerprint → metadata map with per-node
  LRU eviction; both engines consult it before charging a producer's
  virtual costs and replay the (free) real computation on a hit;
* deterministic fingerprints (:mod:`repro.cache.fingerprint`) built
  from function identity, argument :class:`~repro.rayx.ObjectRef`
  lineage and the config ``epoch`` — a reconstructed object keeps its
  fingerprint, so fault-driven re-execution still hits;
* :class:`repro.config.CacheConfig` — capacity, lookup cost, epoch.

Selecting a cache follows the tracer/injector/scheduler/mem pattern,
with one twist: what is installed is a cache *instance*, which
survives ``fresh_cluster()`` rebuilds — outliving a cluster is the whole
point of a cold-vs-warm sweep:

>>> from repro.cache import cached
>>> with cached("on,cap=2GiB") as cache:
...     cold = run_kge_script(fresh_cluster(), dataset)
...     warm = run_kge_script(fresh_cluster(), dataset)   # hits
>>> cache.hit_rate > 0
True

or for one cluster via ``build_cluster(env, cache=ResultCache(...))``,
or from the command line with ``python -m repro fig13c --cache on``
(``python -m repro cache`` prints the spec grammar).  The explicit
argument beats the installed instance, which beats a fresh dormant
cache per cluster.

By default the cache is dormant and every timing stays
bit-identical to the seed — pinned by ``tests/obs/test_timing_regression.py``
the same way ``repro.obs``/``repro.faults``/``repro.sched``/
``repro.mem`` are.  Enabled-but-cold runs are *also* bit-identical:
misses charge nothing.
"""

from __future__ import annotations

from repro.cache.cache import CacheEntry, ResultCache
from repro.cache.fingerprint import (
    combine,
    fingerprint_function,
    fingerprint_value,
)
from repro.cache.spec import parse_cache_spec
from repro.config import CacheConfig
from repro.layer import Slot

__all__ = [
    "CacheConfig",
    "CacheEntry",
    "ResultCache",
    "combine",
    "fingerprint_function",
    "fingerprint_value",
    "parse_cache_spec",
    "install_cache",
    "uninstall_cache",
    "current_cache",
    "cached",
]

#: The globally installed cache instance, if any — shared by every
#: cluster built afterwards, so re-running a task on a fresh cluster
#: hits.  Takes a :class:`ResultCache`, or what its constructor takes (a
#: :class:`CacheConfig` or a spec string).
_slot = Slot(
    lambda value: value if isinstance(value, ResultCache) else ResultCache(value)
)
install_cache = _slot.install
uninstall_cache = _slot.uninstall
current_cache = _slot.current
#: ``with cached("on,cap=2GiB") as cache: ...``
cached = _slot.scoped
