"""Count pins: the workflow engine hashes each batch's rows once.

With the result cache on, every batch a producer flushes is hashed at
the flush and the digest travels on the batch; the consumer folds it
into its rolling key instead of hashing the rows again.  Counted with
``sys.setprofile``, no wall clock: the top-level content hashes of a
run are exactly one per flushed batch plus one per source settle,
none of them under ``_consume_batch``, and a dormant-cache run makes
no ``fingerprint_value`` call at all.  A state value that several
operators share is pickled once per plan build.
"""

import sys
from collections import Counter

import pytest

from repro.cache import cached
from repro.cache.fingerprint import fingerprint_function, fingerprint_value
from repro.cluster import build_cluster
from repro.relational import FieldType, Schema, Table, column_greater
from repro.sim import Environment
from repro.tasks import fresh_cluster
from repro.tasks.kge import KgeDataset, make_kge_dataset, run_kge_workflow
from repro.workflow import Workflow, WorkflowController, run_workflow
from repro.workflow.engine import _Batch, _operator_fingerprint
from repro.workflow.operators import (
    AggregationFunction,
    FilterOperator,
    GroupByOperator,
    SinkOperator,
    TableSource,
)

SCHEMA = Schema.of(id=FieldType.INT, bucket=FieldType.INT, score=FieldType.FLOAT)
ROWS = 500
BATCH = 64  # WorkflowConfig.default_batch_size

#: Engine frames that can start a content hash, innermost first.
ENGINE_FRAMES = {
    getattr(WorkflowController, name).__code__: name
    for name in ("_flush", "_run_source", "_consume_batch")
}
#: Hashing's own recursion, and the build-time operator fingerprint.
NOT_CONTENT = {
    fingerprint_value.__code__,
    fingerprint_function.__code__,
    _operator_fingerprint.__code__,
}


def make_workflow():
    table = Table.from_rows(SCHEMA, [[i, i % 4, i / 7] for i in range(ROWS)])
    wf = Workflow("fingerprint-counts")
    scan = wf.add_operator(TableSource("scan", table))
    keep = wf.add_operator(FilterOperator("keep", column_greater("score", 3.0)))
    group = wf.add_operator(
        GroupByOperator(
            "by_bucket",
            "bucket",
            AggregationFunction.SUM,
            value_field="score",
            num_workers=2,
        )
    )
    sink = wf.add_operator(SinkOperator("out"))
    wf.link(scan, keep)
    wf.link(keep, group)
    wf.link(group, sink)
    return wf


def counted_run():
    """Run the workflow once; tally its hashes and flushed batches."""
    tally = Counter()
    # An outer profiler (a reachability run, say) keeps seeing every
    # call and is back in place afterwards.
    outer = sys.getprofile()

    def profile(frame, event, arg):
        if outer is not None:
            outer(frame, event, arg)
        if event != "call":
            return
        code = frame.f_code
        if code is _Batch.__init__.__code__:
            tally["batches"] += 1
        elif code is fingerprint_value.__code__:
            tally["fingerprint_value"] += 1
            # Walk out through comprehension and helper frames to the
            # first frame that is either hashing itself or the engine.
            caller = frame.f_back
            while caller is not None and not (
                caller.f_code in NOT_CONTENT or caller.f_code in ENGINE_FRAMES
            ):
                caller = caller.f_back
            if caller is not None and caller.f_code in NOT_CONTENT:
                return
            tally["content"] += 1
            tally[ENGINE_FRAMES.get(caller.f_code) if caller else None] += 1

    cluster = build_cluster(Environment())
    workflow = make_workflow()
    sys.setprofile(profile)
    try:
        result = run_workflow(cluster, workflow)
    finally:
        sys.setprofile(outer)
    return result, tally


def test_each_batch_is_hashed_once_at_its_producer():
    source_settles = ROWS // BATCH + 1  # every full buffer, then the tail
    with cached("on") as cache:
        for _ in ("cold", "warm"):
            result, tally = counted_run()
            assert len(result.table().rows) == 4
            assert tally["batches"] > source_settles
            assert tally["content"] == tally["batches"] + source_settles
            assert tally["_flush"] == tally["batches"]
            assert tally["_run_source"] == source_settles
            assert tally["_consume_batch"] == 0
        assert cache.hits > 0


@pytest.mark.parametrize("spec", [None, "off"], ids=["default", "off"])
def test_a_dormant_cache_hashes_nothing(spec):
    if spec is None:
        result, tally = counted_run()
    else:
        with cached(spec):
            result, tally = counted_run()
    assert len(result.table().rows) == 4
    assert tally["batches"] > 0
    assert tally["fingerprint_value"] == 0


def test_a_dataset_the_kge_stages_share_is_pickled_once_per_build(monkeypatch):
    # All five stage operators hold the one dataset; each build used to
    # pickle it once per operator to fingerprint that operator.
    dataset = make_kge_dataset(num_candidates=60, universe_size=400)
    pickles = Counter()

    def counted(value, protocol):
        pickles[id(value)] += 1
        return object.__reduce_ex__(value, protocol)

    monkeypatch.setattr(KgeDataset, "__reduce_ex__", counted)
    with cached("on") as cache:
        for builds in (1, 2):  # cold, then warm
            run_kge_workflow(fresh_cluster(), dataset)
            assert pickles == {id(dataset): builds}
        assert cache.hits > 0
