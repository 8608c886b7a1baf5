"""The cache must be invisible until it hits.

Two timing guarantees beyond the dormant pin every layer shares
(``tests/obs/test_timing_regression.py``), in escalating order:

* **enabled but cold**: still bit-identical — misses charge nothing,
  and fingerprinting happens in free real Python;
* **warm**: strictly faster on every task, under both engines, with
  outputs identical to the seed run.
"""

from repro.cache import ResultCache, cached
from tests.support.cells import SEED_TIMINGS, group, run, seed_timings


def test_enabled_cold_cache_timings_bit_identical_to_seed():
    """An installed-but-empty cache only ever misses — and misses are
    bookkeeping, not virtual time.

    Each task gets its *own* fresh cache: a cache shared across tasks
    legitimately hits (GOTTA's 1- and 4-CPU runs put the same model),
    which is reuse, not drift.
    """
    caches = []
    timings = {}
    for key in SEED_TIMINGS:
        name, paradigm = key.split("/")
        caches.append(ResultCache("on"))
        timings[key] = run(group("tasks")[name], paradigm, slots=[(cached, caches[-1])]).elapsed_s
    assert timings == SEED_TIMINGS
    assert all(cache.hits == 0 for cache in caches)
    assert sum(cache.misses for cache in caches) > 0  # really consulted


def test_warm_cache_strictly_faster_everywhere():
    cache = ResultCache("on")
    cold = seed_timings(slots=[(cached, cache)])
    warm = seed_timings(slots=[(cached, cache)])
    for key, warm_elapsed in warm.items():
        assert warm_elapsed < cold[key], f"{key} did not speed up warm"
    assert cold["gotta/script"] == SEED_TIMINGS["gotta/script"]
    assert cache.hits > 0
