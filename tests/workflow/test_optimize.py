"""The logical optimizer: fusion, dead-column pruning, placement.

Contract under test: ``optimize_workflow`` may change the *physical*
plan — fewer operators, narrower rows on the wire, co-located language
groups — but never the collected rows; and with the optimizer off the
plan is untouched, so calibrated timings and cache lineage keys stay
exactly as pinned.  Fault recovery composes: a fused operator is one
checkpointing instance, and an injected crash replays it like any
hand-built operator.
"""

from dataclasses import replace

from repro.cache import ResultCache, cached
from repro.cluster import build_cluster
from repro.config import default_config
from repro.datasets import generate_fsqa, generate_maccrobat, generate_wildfire_tweets
from repro.errors import InvalidWorkflow  # noqa: F401  (re-exported surface)
from repro.experiments.harness import cached_kge_dataset
from repro.faults import FaultEvent, FaultSchedule, faults_injected
from repro.obs import Tracer
from repro.obs.export import breakdown
from repro.relational import (
    FieldType,
    Schema,
    Table,
    column_greater,
    udf_predicate,
)
from repro.sim import Environment
from repro.tasks import fresh_cluster
from repro.tasks.dice import run_dice_workflow
from repro.tasks.gotta import run_gotta_workflow
from repro.tasks.kge import run_kge_workflow
from repro.tasks.wef import run_wef_workflow
from repro.workflow import Workflow, run_workflow
from repro.workflow.language import OperatorLanguage
from repro.workflow.operators import (
    FilterOperator,
    LimitOperator,
    ProjectionOperator,
    SinkOperator,
    SortOperator,
    TableSource,
)
from repro.workflow.optimize import (
    FusedOperator,
    fuse_adjacent,
    optimize_workflow,
    placement_groups,
    prune_dead_columns,
)

WIDE = Schema.of(
    id=FieldType.INT,
    score=FieldType.FLOAT,
    note=FieldType.STRING,
    blob=FieldType.STRING,
)


def wide_table(rows=300):
    return Table.from_rows(
        WIDE, [[i, i / 100, f"note-{i}", "x" * 50] for i in range(rows)]
    )


def make_workflow(predicate=None, project=("id", "score"), languages=None):
    """scan -> keep -> keep2 -> columns -> results, all single-worker."""
    languages = languages or {}
    wf = Workflow("optimizer-demo")
    src = wf.add_operator(TableSource("scan", wide_table()))
    keep = wf.add_operator(
        FilterOperator(
            "keep",
            predicate or column_greater("score", 0.5),
            language=languages.get("keep", OperatorLanguage.PYTHON),
        )
    )
    keep2 = wf.add_operator(
        FilterOperator(
            "keep2",
            column_greater("score", 1.0),
            language=languages.get("keep2", OperatorLanguage.PYTHON),
        )
    )
    columns = wf.add_operator(ProjectionOperator("columns", list(project)))
    sink = wf.add_operator(SinkOperator("results"))
    wf.link(src, keep)
    wf.link(keep, keep2)
    wf.link(keep2, columns)
    wf.link(columns, sink)
    return wf


def run_once(workflow, config=None, cache=None, schedule=None):
    from contextlib import ExitStack

    with ExitStack() as stack:
        injector = None
        if schedule is not None:
            injector = stack.enter_context(faults_injected(schedule))
        if cache is not None:
            stack.enter_context(cached(cache))
        cluster = build_cluster(Environment())
        result = run_workflow(cluster, workflow, config)
    return result, injector


def rows_of(result):
    return result.table().multiset()


# -- fusion --------------------------------------------------------------------


def test_adjacent_same_language_operators_fuse():
    wf = fuse_adjacent(make_workflow())
    assert "keep+keep2+columns" in wf.operators
    fused = wf.operators["keep+keep2+columns"]
    assert isinstance(fused, FusedOperator)
    assert wf.num_operators == 3  # scan, fused chain, results
    baseline, _ = run_once(make_workflow())
    fused_run, _ = run_once(wf)
    assert rows_of(fused_run) == rows_of(baseline)
    # fewer instances deployed, same rows out
    assert fused_run.num_worker_instances < baseline.num_worker_instances


def test_fusion_stops_at_language_boundaries():
    wf = fuse_adjacent(
        make_workflow(languages={"keep2": OperatorLanguage.SCALA})
    )
    # keep (python) cannot fuse into keep2 (scala); keep2 stays alone
    # because its consumer is python again.
    assert "keep" in wf.operators
    assert "keep2" in wf.operators
    assert "keep+keep2" not in wf.operators


def test_fused_chain_output_schema_matches_tail():
    wf = fuse_adjacent(make_workflow())
    schemas = wf.compile_schemas()
    assert schemas["keep+keep2+columns"].names == ["id", "score"]


def test_a_fused_chain_is_blocking_when_any_of_its_operators_is():
    fused = fuse_adjacent(make_workflow()).operators["keep+keep2+columns"]
    assert fused.is_blocking is False
    sorted_chain = FusedOperator(
        [ProjectionOperator("columns", ["id"]), SortOperator("order", key="id")],
        "columns+order",
    )
    assert sorted_chain.is_blocking is True


# -- dead-column pruning -------------------------------------------------------


def test_pruning_inserts_projection_after_the_source():
    wf = prune_dead_columns(make_workflow())
    pruners = [op_id for op_id in wf.operators if op_id.startswith("prune:")]
    assert pruners == ["prune:scan->keep"]
    baseline, _ = run_once(make_workflow())
    pruned, _ = run_once(wf)
    assert rows_of(pruned) == rows_of(baseline)
    # the pruner drops note/blob before they ever cross the wire
    assert wf.compile_schemas()["prune:scan->keep"].names == ["id", "score"]


def test_udf_predicate_blocks_pruning_upstream_of_itself():
    opaque = udf_predicate(lambda row: row["score"] > 0.5, "udf")
    wf = prune_dead_columns(make_workflow(predicate=opaque))
    pruners = [op for op in wf.operators if op.startswith("prune:")]
    # The UDF reads unknown columns, so nothing may be dropped before
    # it — but the stream still narrows right after it.
    assert pruners == ["prune:keep->keep2"]
    baseline, _ = run_once(make_workflow(predicate=opaque))
    pruned, _ = run_once(
        prune_dead_columns(make_workflow(predicate=opaque))
    )
    assert rows_of(pruned) == rows_of(baseline)


def test_pruning_sees_through_a_fused_chain():
    wf = prune_dead_columns(fuse_adjacent(make_workflow()))
    pruners = [op_id for op_id in wf.operators if op_id.startswith("prune:")]
    assert pruners == ["prune:scan->keep+keep2+columns"]
    assert wf.compile_schemas()[pruners[0]].names == ["id", "score"]
    baseline, _ = run_once(make_workflow())
    pruned, _ = run_once(wf)
    assert rows_of(pruned) == rows_of(baseline)


def test_pruning_sees_through_a_limit():
    def capped():
        wf = Workflow("capped")
        src = wf.add_operator(TableSource("scan", wide_table()))
        cap = wf.add_operator(LimitOperator("cap", 7))
        columns = wf.add_operator(ProjectionOperator("columns", ["id"]))
        wf.link(src, cap)
        wf.link(cap, columns)
        wf.link(columns, wf.add_operator(SinkOperator("results")))
        return wf

    wf = prune_dead_columns(capped())
    assert wf.compile_schemas()["prune:scan->cap"].names == ["id"]
    pruned, _ = run_once(wf)
    baseline, _ = run_once(capped())
    assert rows_of(pruned) == rows_of(baseline)


def test_pruning_noop_when_everything_is_needed():
    wf = prune_dead_columns(
        make_workflow(project=("id", "score", "note", "blob"))
    )
    assert not [op for op in wf.operators if op.startswith("prune:")]


# -- pass-made ids never meet user ids -----------------------------------------


def two_branches(first_ids, second_id, project=None):
    """scan -> first_ids... [-> columns] -> results, and scan2 ->
    second_id -> results2; every filter keeps score > 0.5."""
    wf = Workflow("two-branches")
    upstream = wf.add_operator(TableSource("scan", wide_table()))
    for op_id in first_ids:
        op = wf.add_operator(FilterOperator(op_id, column_greater("score", 0.5)))
        wf.link(upstream, op)
        upstream = op
    if project is not None:
        columns = wf.add_operator(ProjectionOperator("columns", list(project)))
        wf.link(upstream, columns)
        upstream = columns
    wf.link(upstream, wf.add_operator(SinkOperator("results")))
    scan2 = wf.add_operator(TableSource("scan2", wide_table(20)))
    other = wf.add_operator(FilterOperator(second_id, column_greater("score", 0.5)))
    wf.link(scan2, other)
    wf.link(other, wf.add_operator(SinkOperator("results2")))
    return wf


def assert_same_rows(make):
    baseline, _ = run_once(make())
    optimized, _ = run_once(optimize_workflow(make()))
    for sink_id in ("results", "results2"):
        assert (
            optimized.table(sink_id).multiset() == baseline.table(sink_id).multiset()
        )


def test_a_user_operator_named_like_a_pruner_is_not_taken_for_one():
    make = lambda: two_branches(["prune:mine"], "other", project=("id",))
    wf = prune_dead_columns(make())
    assert isinstance(wf.operators["prune:mine"], FilterOperator)
    assert wf.compile_schemas()["prune:scan->prune:mine"].names == ["id", "score"]
    assert_same_rows(make)


def test_a_fused_chain_gets_an_id_no_user_operator_holds():
    make = lambda: two_branches(["a", "b"], "a+b")
    wf = fuse_adjacent(make())
    assert isinstance(wf.operators["a+b"], FilterOperator)
    assert [op.operator_id for op in wf.operators["a+b~2"].chain] == ["a", "b"]
    assert_same_rows(make)


def test_a_pruner_gets_an_id_no_user_operator_holds():
    make = lambda: two_branches(["keep"], "prune:scan->keep", project=("id",))
    wf = prune_dead_columns(make())
    assert isinstance(wf.operators["prune:scan->keep"], FilterOperator)
    assert wf.compile_schemas()["prune:scan->keep~2"].names == ["id", "score"]
    assert_same_rows(make)


# -- placement hints -----------------------------------------------------------


def test_cross_language_links_form_one_colocation_group():
    wf = make_workflow(languages={"keep2": OperatorLanguage.SCALA})
    hints = placement_groups(wf)
    assert hints["keep"] == hints["keep2"] == hints["columns"]
    assert "scan" not in hints  # same-language neighbours stay unhinted


def test_colocated_operators_share_a_node():
    wf = make_workflow(languages={"keep2": OperatorLanguage.SCALA})
    wf.placement_hints = placement_groups(wf)
    result, _ = run_once(wf)
    stats = result.operator_stats
    assert stats["keep"]["nodes"] == stats["keep2"]["nodes"] == stats["columns"]["nodes"]


# -- the config switch ---------------------------------------------------------


def optimizing_config():
    config = default_config()
    return replace(config, workflow=replace(config.workflow, optimize=True))


def test_config_optimize_rewrites_plan_and_preserves_rows():
    baseline, _ = run_once(make_workflow())
    optimized, _ = run_once(make_workflow(), config=optimizing_config())
    assert rows_of(optimized) == rows_of(baseline)
    fused_ids = [op for op in optimized.workflow.operators if "+" in op]
    assert fused_ids == ["prune:scan->keep+keep+keep2+columns"]
    assert optimized.elapsed_s < baseline.elapsed_s


def test_optimizer_off_keeps_plan_and_timing_identical():
    first, _ = run_once(make_workflow())
    second, _ = run_once(make_workflow())
    assert second.elapsed_s == first.elapsed_s
    assert sorted(second.workflow.operators) == sorted(first.workflow.operators)


# -- the paper tasks, compiled from their committed specs ----------------------


def run_kge_scala(cluster):
    dataset = cached_kge_dataset(1500, universe_size=4000)
    return run_kge_workflow(
        cluster, dataset, num_processing_ops=3, join_language="scala"
    )


def test_optimizer_on_the_paper_tasks():
    """Rows never change; wire-bound plans win; untouched plans stay put.

    Fusion trades pipeline parallelism for fewer channel crossings, so
    compute-parallel plans (``dice``, ``kge_python``) may get slower —
    their deltas are deliberately not pinned here.
    """
    reports = generate_maccrobat(num_docs=40, seed=7)
    paragraphs = generate_fsqa(num_paragraphs=1, seed=17)
    dataset = cached_kge_dataset(1500, universe_size=4000)
    tweets = generate_wildfire_tweets(40, seed=11)
    cases = {
        "dice": lambda cl: run_dice_workflow(cl, reports, num_workers=2),
        "dice_relational": lambda cl: run_dice_workflow(
            cl, reports, num_workers=2, style="relational"
        ),
        "gotta": lambda cl: run_gotta_workflow(cl, paragraphs, num_workers=2),
        "kge_python": lambda cl: run_kge_workflow(cl, dataset),
        "kge_scala": run_kge_scala,
        "wef": lambda cl: run_wef_workflow(cl, tweets),
    }
    naive, optimized = {}, {}
    for case, run_fn in cases.items():
        plain = run_fn(fresh_cluster())
        rewritten = run_fn(fresh_cluster(optimizing_config()))
        assert rewritten.output.multiset() == plain.output.multiset(), case
        assert len(plain.output.rows) > 0, case
        naive[case], optimized[case] = plain.elapsed_s, rewritten.elapsed_s
    for case in ("dice_relational", "kge_scala"):  # wire-bound: strictly faster
        assert optimized[case] < naive[case], case
    for case in ("gotta", "wef"):  # nothing to rewrite: not a bit moves
        assert optimized[case] == naive[case], case


def test_pruning_lowers_kge_serialization_seconds():
    """The Scala-join KGE plan ships embedding rows across a language
    boundary; dead-column pruning narrows what crosses."""
    seconds = {}
    for mode, config in (("off", None), ("on", optimizing_config())):
        tracer = Tracer()
        run_kge_scala(fresh_cluster(config, tracer=tracer))
        (run,) = breakdown(tracer)
        seconds[mode] = run.category_total("serialization")
    assert 0 < seconds["on"] < seconds["off"]


# -- faults: fused operators checkpoint and replay -----------------------------


def test_fused_operator_replays_from_checkpoint():
    clean, _ = run_once(optimize_workflow(make_workflow()))
    (fused_id,) = [op for op in clean.workflow.operators if "+" in op]
    schedule = FaultSchedule(
        events=(FaultEvent(0.01, "operator", target=fused_id),)
    )
    faulted, injector = run_once(optimize_workflow(make_workflow()), schedule=schedule)
    assert injector.injected == 1
    assert injector.retries == 1  # one checkpoint restore
    assert rows_of(faulted) == rows_of(clean)
    assert faulted.elapsed_s > clean.elapsed_s


def test_optimized_plan_recovers_from_fault_with_pruning_in_place():
    wf = optimize_workflow(make_workflow())
    pruner_or_fused = [op for op in wf.operators if op != "scan" and op != "results"]
    assert pruner_or_fused
    schedule = FaultSchedule(
        events=(FaultEvent(0.01, "operator", target=pruner_or_fused[0]),)
    )
    clean, _ = run_once(optimize_workflow(make_workflow()))
    faulted, injector = run_once(optimize_workflow(make_workflow()), schedule=schedule)
    assert injector.injected == 1
    assert rows_of(faulted) == rows_of(clean)


# -- cache: lineage keys are stable with the optimizer off ---------------------


def test_cache_lineage_keys_stable_across_runs_optimizer_off():
    cache = ResultCache("on")
    first, _ = run_once(make_workflow(), cache=cache)
    cold = (cache.hits, cache.misses)
    second, _ = run_once(make_workflow(), cache=cache)
    assert rows_of(second) == rows_of(first)
    assert cache.misses == cold[1]  # warm run added no new entries
    assert cache.hits > cold[0]  # every batch key matched the cold run


def test_optimized_runs_use_their_own_cache_keys():
    """Fused plans must not collide with unoptimized lineage keys."""
    cache = ResultCache("on")
    plain, _ = run_once(make_workflow(), cache=cache)
    misses_after_plain = cache.misses
    fused, _ = run_once(optimize_workflow(make_workflow()), cache=cache)
    assert rows_of(fused) == rows_of(plain)
    # the fused operator's work is new lineage, not a false hit
    assert cache.misses > misses_after_plain
