"""Integration tests for the KGE task (both paradigms, all variants)."""

import pytest

from repro.errors import InvalidWorkflow
from repro.tasks import fresh_cluster
from repro.tasks.kge import (
    KGE_COSTS,
    STAGE_FUSIONS,
    make_kge_dataset,
    reference_kge,
    run_kge_script,
    run_kge_workflow,
)

# Small universe keeps tests fast; mechanisms are size-independent.
DATASET = make_kge_dataset(num_candidates=800, universe_size=3000)


@pytest.fixture(scope="module")
def oracle():
    return reference_kge(DATASET).multiset()


def test_reference_shape(oracle):
    table = reference_kge(DATASET)
    assert len(table) == KGE_COSTS.top_k
    assert table.column("rank") == list(range(1, KGE_COSTS.top_k + 1))
    scores = table.column("score")
    assert scores == sorted(scores, reverse=True)


def test_reverse_lookup_recovers_products():
    """The embedding round-trip lands back on the scored product."""
    table = reference_kge(DATASET)
    names = DATASET.names
    for row in table:
        assert row["name"] == names[row["product_id"]]


def test_script_matches_oracle(oracle):
    run = run_kge_script(fresh_cluster(), DATASET)
    assert run.output.multiset() == oracle


def test_workflow_matches_oracle(oracle):
    run = run_kge_workflow(fresh_cluster(), DATASET)
    assert run.output.multiset() == oracle


@pytest.mark.parametrize("k", sorted(STAGE_FUSIONS))
def test_every_fusion_level_matches_oracle(k, oracle):
    run = run_kge_workflow(fresh_cluster(), DATASET, num_processing_ops=k)
    assert run.output.multiset() == oracle
    assert run.extras["num_processing_ops"] == k


def test_scala_variant_matches_oracle(oracle):
    run = run_kge_workflow(
        fresh_cluster(), DATASET, num_processing_ops=3, join_language="scala"
    )
    assert run.output.multiset() == oracle
    # 9 scala ops replace 1 python op: 3 + 9 - 1 processing, + src/sink.
    assert run.extras["num_operators"] == 2 + 2 + 9


def test_scala_variant_requires_three_ops():
    with pytest.raises(InvalidWorkflow):
        run_kge_workflow(
            fresh_cluster(), DATASET, num_processing_ops=5, join_language="scala"
        )


def test_invalid_fusion_rejected():
    with pytest.raises(InvalidWorkflow):
        run_kge_workflow(fresh_cluster(), DATASET, num_processing_ops=7)


#: Past ~2k candidates the per-tuple marginal dominates fixed costs
#: and the paper's orderings emerge (below that, the script's object
#: store fixed costs put it behind — a genuine crossover).
BIG_DATASET = make_kge_dataset(num_candidates=3000, universe_size=3000)


def test_script_beats_workflow():
    """Figure 13c: the script wins KGE (serialization overhead)."""
    script = run_kge_script(fresh_cluster(), BIG_DATASET)
    workflow = run_kge_workflow(fresh_cluster(), BIG_DATASET)
    assert script.elapsed_s < workflow.elapsed_s


def test_modularity_improves_until_bottleneck_split():
    """Figure 12b: more operators help (pipelining), then plateau."""
    times = {
        k: run_kge_workflow(fresh_cluster(), DATASET, num_processing_ops=k).elapsed_s
        for k in (1, 5, 6)
    }
    assert times[5] < times[1]
    # The 6th operator splits a non-bottleneck stage: no further gain.
    assert times[6] >= times[5] - 1e-6


def test_scala_faster_at_small_scale():
    """Table I, 6.8k side: the Scala join's cheap table load wins."""
    python = run_kge_workflow(fresh_cluster(), DATASET, num_processing_ops=3)
    scala = run_kge_workflow(
        fresh_cluster(), DATASET, num_processing_ops=3, join_language="scala"
    )
    assert scala.elapsed_s < python.elapsed_s


def test_scala_advantage_shrinks_with_scale():
    """Table I's key shape: relative advantage collapses at scale."""
    small = make_kge_dataset(num_candidates=300, universe_size=3000)
    large = make_kge_dataset(num_candidates=3000, universe_size=3000)

    def advantage(dataset):
        python = run_kge_workflow(fresh_cluster(), dataset, num_processing_ops=3)
        scala = run_kge_workflow(
            fresh_cluster(), dataset, num_processing_ops=3, join_language="scala"
        )
        return (python.elapsed_s - scala.elapsed_s) / scala.elapsed_s

    assert advantage(large) < advantage(small)


def test_multiworker_matches_oracle(oracle):
    script = run_kge_script(fresh_cluster(), DATASET, num_cpus=4)
    workflow = run_kge_workflow(fresh_cluster(), DATASET, num_workers=4)
    assert script.output.multiset() == oracle
    assert workflow.output.multiset() == oracle


def test_workers_scale_both_paradigms():
    """Figure 14c: both paradigms scale near-linearly for KGE."""
    script_1 = run_kge_script(fresh_cluster(), BIG_DATASET, num_cpus=1)
    script_4 = run_kge_script(fresh_cluster(), BIG_DATASET, num_cpus=4)
    workflow_1 = run_kge_workflow(fresh_cluster(), BIG_DATASET, num_workers=1)
    workflow_4 = run_kge_workflow(fresh_cluster(), BIG_DATASET, num_workers=4)
    assert script_4.elapsed_s < script_1.elapsed_s
    assert workflow_4.elapsed_s < workflow_1.elapsed_s
    # The script is ahead at 1 worker (paper Fig 14c); at 4 workers on
    # this reduced test scale fixed costs dominate and the ordering can
    # flip — the benchmark reproduces the paper's scale where it holds.
    assert script_1.elapsed_s < workflow_1.elapsed_s


def test_dataset_validation():
    with pytest.raises(ValueError):
        make_kge_dataset(num_candidates=0)
    with pytest.raises(ValueError):
        make_kge_dataset(num_candidates=10, universe_size=5)
