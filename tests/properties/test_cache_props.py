"""Property: caching changes timing, never results.

For any cache config (dormant or enabled, any capacity/lookup/epoch),
on either engine, under any placement policy, with or without a seeded
fault schedule, both the cold run *and* the warm rerun produce output
rows identical to the default uncached run.  This is the contract that
makes ``--cache`` safe to add to any experiment: the cache decides
*whether compute replays free* and nothing else — tiny capacities that
evict constantly, absurd lookup costs and mid-stream fault recoveries
all land on the same rows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ResultCache, cached
from repro.cluster import build_cluster
from repro.config import CacheConfig
from repro.faults import FaultSchedule, faults_injected
from repro.rayx import run_script
from repro.relational import FieldType, Schema, Table, column_greater
from repro.sched import scheduling
from repro.sim import Environment
from repro.workflow import Workflow, run_workflow
from repro.workflow.operators import FilterOperator, SinkOperator, TableSource

SCHEMA = Schema.of(id=FieldType.INT, score=FieldType.FLOAT)


def script_outputs(cache=None):
    def task(ctx, x):
        yield from ctx.compute(0.3)
        return [(x, float(x) * 1.5)]

    def driver(rt):
        refs = [rt.submit(task, i, label=f"t{i}") for i in range(6)]
        partials = yield from rt.get_all(refs)
        return sorted(row for partial in partials for row in partial)

    return run_script(_cluster(cache), driver, num_cpus=3)


def workflow_outputs(cache=None):
    table = Table.from_rows(SCHEMA, [[i, float(i % 5)] for i in range(40)])
    wf = Workflow("cache-props")
    source = wf.add_operator(TableSource("rows", table, num_workers=2))
    keep = wf.add_operator(
        FilterOperator("keep", column_greater("score", 1.0), num_workers=2)
    )
    sink = wf.add_operator(SinkOperator("out"))
    wf.link(source, keep)
    wf.link(keep, sink)
    result = run_workflow(_cluster(cache), wf)
    return sorted(tuple(row.values) for row in result.table("out").rows)


def _cluster(cache):
    env = Environment()
    if cache is None:
        return build_cluster(env)
    return build_cluster(env, cache=cache)


SCRIPT_EXPECTED = script_outputs()
WORKFLOW_EXPECTED = workflow_outputs()

#: Capacities chosen to exercise every eviction regime: a few bytes
#: (everything thrashes), mid-size (some entries survive), unlimited.
cache_configs = st.one_of(
    st.just(CacheConfig()),
    st.builds(
        CacheConfig,
        enabled=st.just(True),
        capacity_bytes=st.sampled_from([None, 64, 1 << 20]),
        lookup_s=st.sampled_from([1.0e-4, 0.05]),
        epoch=st.integers(0, 2),
    ),
)

fault_schedules = st.one_of(
    st.none(),
    st.builds(
        FaultSchedule.generate,
        seed=st.integers(0, 2**16),
        horizon_s=st.just(8.0),
        tasks=st.integers(0, 2),
        operators=st.integers(0, 2),
        nodes=st.integers(0, 1),
        replicas=st.integers(0, 1),
    ),
)

policies = st.sampled_from([None, "round_robin", "least_loaded", "locality"])


def run_twice(config, schedule, policy, run_fn):
    """Cold run then warm rerun under one shared cache instance."""
    from contextlib import ExitStack

    cache = ResultCache(config)
    outputs = []
    for _ in range(2):
        with ExitStack() as stack:
            if schedule is not None:
                stack.enter_context(faults_injected(schedule))
            if policy is not None:
                stack.enter_context(scheduling(policy))
            stack.enter_context(cached(cache))
            outputs.append(run_fn(cache))
    return outputs


@settings(max_examples=12, deadline=None)
@given(config=cache_configs, schedule=fault_schedules, policy=policies)
def test_script_outputs_equal_uncached_run(config, schedule, policy):
    cold, warm = run_twice(config, schedule, policy, script_outputs)
    assert cold == warm == SCRIPT_EXPECTED


@settings(max_examples=12, deadline=None)
@given(config=cache_configs, schedule=fault_schedules, policy=policies)
def test_workflow_outputs_equal_uncached_run(config, schedule, policy):
    cold, warm = run_twice(config, schedule, policy, workflow_outputs)
    assert cold == warm == WORKFLOW_EXPECTED


FINGERPRINTS = [f"fp{i}" for i in range(6)]
NODES = ["worker-0", "worker-1", "worker-2"]

cache_ops = st.one_of(
    st.tuples(
        st.just("insert"),
        st.sampled_from(FINGERPRINTS),
        st.integers(-10, 120),  # negative sizes are clamped to zero
        st.sampled_from(NODES),
    ),
    st.tuples(st.just("lookup"), st.sampled_from(FINGERPRINTS)),
    st.tuples(st.just("invalidate"), st.sampled_from(FINGERPRINTS)),
    st.tuples(st.just("clear")),
)


def assert_byte_ledger(cache):
    """Per node: the byte count is the sum of its entries, and its LRU
    holds exactly those entries."""
    entries = cache._entries
    for node in set(NODES) | set(cache._node_lru) | set(cache._node_bytes):
        mine = {fp: e for fp, e in entries.items() if e.node == node}
        assert cache.node_bytes(node) == sum(e.nbytes for e in mine.values())
        assert dict(cache._node_lru.get(node, {})) == mine
    assert cache.total_bytes == sum(e.nbytes for e in entries.values())
    assert all(fp == entry.fingerprint for fp, entry in entries.items())


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.sampled_from([None, 1, 50, 150, 400]),
    ops=st.lists(cache_ops, max_size=40),
)
def test_byte_ledger_equals_the_entries_on_every_node(capacity, ops):
    """Insert, re-insert on another node, lookup, invalidate, clear and
    capacity eviction, in any order, keep each node's byte count equal
    to the entries listed on it — so ``_forget`` needs no clamp."""
    cache = ResultCache(CacheConfig(enabled=True, capacity_bytes=capacity))
    for op, *args in ops:
        if op == "insert":
            fingerprint, nbytes, node = args
            evicted = cache.insert(fingerprint, nbytes, node)
            assert fingerprint in cache
            assert all(victim.node == node for victim in evicted)
        elif op == "lookup":
            hit = cache.lookup(args[0])
            assert (hit is not None) == (args[0] in cache)
        elif op == "invalidate":
            cache.invalidate(args[0])
            assert args[0] not in cache
        else:
            cache.clear()
        assert_byte_ledger(cache)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_thrashing_capacity_never_corrupts_results(seed):
    """A capacity smaller than any entry evicts on every insert; the
    cache must degrade to a slow miss machine, not a wrong one."""
    config = CacheConfig(enabled=True, capacity_bytes=1)
    schedule = FaultSchedule.generate(seed=seed, horizon_s=8.0, tasks=1)
    cold, warm = run_twice(config, schedule, None, script_outputs)
    assert cold == warm == SCRIPT_EXPECTED
