"""ResultCache mechanics: LRU eviction, stats, specs, installation."""

import pytest

from repro.cache import (
    CacheConfig,
    ResultCache,
    cached,
    current_cache,
    install_cache,
    parse_cache_spec,
    uninstall_cache,
)
from repro.cache.spec import CACHE_GRAMMAR
from repro.cluster import build_cluster
from repro.errors import CacheSpecError
from repro.sim import Environment


@pytest.fixture(autouse=True)
def _no_leftover_install():
    yield
    uninstall_cache()


# -- spec parsing -------------------------------------------------------------


def test_spec_defaults_and_flags():
    assert parse_cache_spec("on").enabled
    assert not parse_cache_spec("off").enabled
    config = parse_cache_spec("on,cap=1kib,lookup=0.5,epoch=3")
    assert config.capacity_bytes == 1024
    assert config.lookup_s == 0.5
    assert config.epoch == 3


@pytest.mark.parametrize(
    "spec",
    ["", "bogus", "cap=banana", "lookup=fast", "epoch=x", "cap=-1", "lookup=-1"],
)
def test_bad_specs_raise_cache_spec_error(spec):
    with pytest.raises(CacheSpecError):
        parse_cache_spec(spec)


def test_describe_mentions_state_and_capacity():
    text = CACHE_GRAMMAR.describe(parse_cache_spec("on,cap=1gib"))
    assert text.startswith("cache: on\n") and "\n  cap=1GiB " in text
    assert CACHE_GRAMMAR.describe(CacheConfig()).startswith("cache: off (dormant)\n")


# -- lookup / insert / eviction -----------------------------------------------


def test_lookup_miss_then_hit_updates_stats():
    cache = ResultCache("on")
    assert cache.lookup("fp1") is None
    cache.insert("fp1", nbytes=10, node="worker-0")
    entry = cache.lookup("fp1")
    assert entry is not None and entry.nbytes == 10
    assert cache.stats() == {
        "hits": 1,
        "misses": 1,
        "inserts": 1,
        "evictions": 0,
        "entries": 1,
        "bytes": 10,
    }
    assert cache.hit_rate == 0.5


def test_capacity_evicts_lru_per_node():
    cache = ResultCache("on,cap=1kib")
    cache.insert("x", nbytes=600, node="worker-0")
    cache.insert("y", nbytes=600, node="worker-0")  # 1200 > 1024: x goes
    assert "x" not in cache
    assert "y" in cache
    assert cache.evictions == 1
    assert cache.node_bytes("worker-0") == 600


def test_eviction_is_per_node_not_global():
    cache = ResultCache("on,cap=1kib")
    cache.insert("a", nbytes=700, node="worker-0")
    cache.insert("b", nbytes=700, node="worker-1")
    assert "a" in cache and "b" in cache  # different nodes, both fit
    assert cache.total_bytes == 1400


def test_hit_refreshes_lru_position():
    cache = ResultCache("on,cap=1kib")
    cache.insert("old", nbytes=500, node="worker-0")
    cache.insert("mid", nbytes=400, node="worker-0")
    assert cache.lookup("old") is not None  # refresh: now "mid" is coldest
    cache.insert("new", nbytes=400, node="worker-0")
    assert "mid" not in cache
    assert "old" in cache and "new" in cache


def test_oversized_entry_never_evicts_itself():
    cache = ResultCache("on,cap=1kib")
    cache.insert("huge", nbytes=5000, node="worker-0")
    assert "huge" in cache  # kept: evicting the only entry helps nothing


def test_peek_node_does_not_perturb_stats_or_lru():
    cache = ResultCache("on")
    cache.insert("fp", nbytes=1, node="worker-2")
    hits_before = cache.hits
    assert cache.peek_node("fp") == "worker-2"
    assert cache.peek_node("absent") is None
    assert cache.hits == hits_before


def test_invalidate_and_clear():
    cache = ResultCache("on")
    cache.insert("fp", nbytes=5, node="n")
    cache.invalidate("fp")
    assert "fp" not in cache
    cache.insert("fp2", nbytes=5, node="n")
    cache.clear()
    assert len(cache) == 0
    assert cache.inserts == 2  # stats survive clear


def test_dormant_cache_is_inactive():
    assert not ResultCache(CacheConfig()).active
    assert ResultCache("on").active


# -- installation precedence --------------------------------------------------


def test_explicit_argument_beats_installed_cache():
    explicit = ResultCache("on")
    with cached("on"):
        cluster = build_cluster(Environment(), cache=explicit)
    assert cluster.cache is explicit


def test_installed_instance_survives_cluster_rebuilds():
    installed = install_cache("on")
    try:
        first = build_cluster(Environment())
        second = build_cluster(Environment())
        assert first.cache is installed
        assert second.cache is installed
    finally:
        uninstall_cache()
    assert current_cache() is None


def test_default_is_dormant():
    # Nothing installed: each cluster gets its own fresh, dormant cache.
    first = build_cluster(Environment())
    second = build_cluster(Environment())
    assert not first.cache.active and not second.cache.active
    assert first.cache is not second.cache


def test_cached_context_restores_previous():
    outer = install_cache("on")
    try:
        with cached("on,cap=1kib") as inner:
            assert current_cache() is inner
        assert current_cache() is outer
    finally:
        uninstall_cache()
