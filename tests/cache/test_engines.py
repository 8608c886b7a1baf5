"""Cache semantics inside the engines: hits, faults, affinity.

The subtle invariants that unit tests on :class:`ResultCache` cannot
see — hit tasks must still produce *real* values (the free replay),
injected faults must still fire on hit submissions, lineage
reconstruction must hit the cache, and the locality policy must steer
warm tasks back to the node holding their result.
"""

from repro.cache import ResultCache, cached
from repro.datasets import generate_fsqa, generate_maccrobat, generate_wildfire_tweets
from repro.experiments.harness import cached_kge_dataset
from repro.faults import FaultEvent, FaultSchedule, faults_injected
from repro.sched import PlacementRequest, Scheduler
from repro.sched.policy import LocalityPolicy
from repro.rayx import run_script
from repro.tasks import fresh_cluster
from repro.tasks.dice import run_dice_script, run_dice_workflow
from repro.tasks.gotta import run_gotta_script, run_gotta_workflow
from repro.tasks.kge import run_kge_script, run_kge_workflow
from repro.tasks.wef import run_wef_script, run_wef_workflow


def square(ctx, x):
    yield from ctx.compute(0.4)
    return x * x


def driver(rt):
    refs = [rt.submit(square, i, label=f"square-{i}") for i in range(5)]
    values = yield from rt.get_all(refs)
    return values


def run_once():
    cluster = fresh_cluster()
    values = run_script(cluster, driver, num_cpus=4)
    return cluster, values


# -- hit semantics -------------------------------------------------------------


def test_warm_run_returns_real_values_via_adoption():
    from repro.obs import Tracer, tracing

    cache = ResultCache("on")
    with cached(cache):
        _, cold_values = run_once()
        with tracing(Tracer()) as tracer:
            _, warm_values = run_once()
    assert warm_values == cold_values == [0, 1, 4, 9, 16]
    assert cache.hits == 5
    # Hits bypass put-time but the store holds real adopted objects —
    # the values above came out of it.
    assert tracer.metrics.value("objectstore.adopt.count") == 5
    assert tracer.metrics.total("cache.hit") == 5


def test_warm_run_is_faster_and_cold_matches_dormant():
    base_cluster, _ = run_once()
    cache = ResultCache("on")
    with cached(cache):
        cold_cluster, _ = run_once()
        warm_cluster, _ = run_once()
    assert cold_cluster.env.now == base_cluster.env.now
    assert warm_cluster.env.now < cold_cluster.env.now


def test_distinct_arguments_do_not_collide():
    def driver_b(rt):
        refs = [rt.submit(square, i, label=f"square-{i}") for i in range(5, 10)]
        values = yield from rt.get_all(refs)
        return values

    cache = ResultCache("on")
    with cached(cache):
        run_once()
        cluster = fresh_cluster()
        values = run_script(cluster, driver_b, num_cpus=4)
    assert values == [25, 36, 49, 64, 81]
    assert cache.hits == 0  # different args -> different lineage keys


def test_epoch_bump_invalidates_everything():
    with cached(ResultCache("on,epoch=0")):
        _, cold = run_once()
    cache = ResultCache("on,epoch=1")
    with cached(cache):
        _, values = run_once()
    assert values == cold
    assert cache.hits == 0


# -- steady state on the paper tasks -------------------------------------------

#: Warm re-runs allowed before we call the timeline non-convergent.
MAX_WARM_RUNS = 10


def steady_warm(run_fn):
    """Warm re-run until the elapsed time is a fixed point.

    Pipelined workflow runs re-batch as hits shift the timeline, so the
    first warm pass can be a partial hit; the steady state is what an
    analyst iterating on an unchanged pipeline sees.  Returns
    ``(elapsed, passes)``; ``passes == MAX_WARM_RUNS`` means it never
    settled.
    """
    previous = None
    for passes in range(MAX_WARM_RUNS):
        elapsed = run_fn(fresh_cluster()).elapsed_s
        if elapsed == previous:
            return elapsed, passes
        previous = elapsed
    return previous, MAX_WARM_RUNS


def test_warm_workflow_runs_converge_to_a_fixed_point():
    reports = generate_maccrobat(num_docs=40, seed=7)

    def run_fn(cluster):
        return run_dice_workflow(cluster, reports, num_workers=4)

    with cached(ResultCache("on")):
        run_fn(fresh_cluster())
        warm, passes = steady_warm(run_fn)
    assert passes < MAX_WARM_RUNS, "warm workflow timeline never converged"
    assert warm > 0.0


def test_steady_warm_at_least_2x_on_every_task_both_engines():
    reports = generate_maccrobat(num_docs=40, seed=7)
    paragraphs = generate_fsqa(num_paragraphs=1, seed=17)
    dataset = cached_kge_dataset(1500, universe_size=4000)
    tweets = generate_wildfire_tweets(40, seed=11)
    cases = {
        "dice/script": lambda cl: run_dice_script(cl, reports, num_cpus=4),
        "dice/workflow": lambda cl: run_dice_workflow(cl, reports, num_workers=4),
        "gotta/script": lambda cl: run_gotta_script(cl, paragraphs, num_cpus=4),
        "gotta/workflow": lambda cl: run_gotta_workflow(cl, paragraphs, num_workers=4),
        "kge/script": lambda cl: run_kge_script(cl, dataset, num_cpus=4),
        "kge/workflow": lambda cl: run_kge_workflow(cl, dataset),
        "wef/script": lambda cl: run_wef_script(cl, tweets, num_cpus=4),
        "wef/workflow": lambda cl: run_wef_workflow(cl, tweets),
    }
    for case, run_fn in cases.items():
        dormant = run_fn(fresh_cluster()).elapsed_s
        with cached(ResultCache("on")):
            cold = run_fn(fresh_cluster()).elapsed_s
            warm, _ = steady_warm(run_fn)
        assert cold == dormant, f"{case}: cold drifted from seed"
        assert cold / warm >= 2.0, f"{case}: steady warm only {cold / warm:.2f}x"


# -- fault interplay -----------------------------------------------------------


def test_hits_do_not_mask_injected_task_faults():
    """A warm submission that would hit still takes its injected crash
    (and the retry), exactly like a cold one."""
    cache = ResultCache("on")
    with cached(cache):
        run_once()  # warm the cache
        schedule = FaultSchedule(
            events=(FaultEvent(0.0, "task", target="square-*"),)
        )
        with faults_injected(schedule) as injector:
            cluster = fresh_cluster()
            values = run_script(cluster, driver, num_cpus=4)
    assert values == [0, 1, 4, 9, 16]
    assert injector.injected == 1
    assert injector.retries == 1


def test_lineage_reconstruction_hits_the_cache():
    """Losing every replica forces a rebuild; the reconstructed ref
    keeps its fingerprint, so the rebuild replays at lookup cost.

    That holds even on the *first* enabled run — the rebuild hits
    entries inserted moments earlier in the same run — so under a
    replica fault an enabled cache legitimately beats dormant from
    run one.  (Fault-free cold runs stay bit-identical to the seed;
    ``test_timing_pin`` pins that.)
    """

    def late_get_driver(rt):
        refs = [rt.submit(square, i, label=f"square-{i}") for i in range(5)]
        yield from rt.wait(refs, num_returns=5)
        yield rt.env.timeout(1.0)  # loss window: the replica fault lands here
        values = yield from rt.get_all(refs)
        return values

    schedule = FaultSchedule(
        events=(FaultEvent(3.0, "replica", target="square-*"),)
    )

    def run_faulted():
        with faults_injected(schedule) as injector:
            cluster = fresh_cluster()
            values = run_script(cluster, late_get_driver, num_cpus=4)
        return cluster.env.now, values, injector

    dormant_elapsed, dormant_values, dormant_injector = run_faulted()
    cache = ResultCache("on")
    with cached(cache):
        first_elapsed, first_values, _ = run_faulted()
        warm_elapsed, warm_values, warm_injector = run_faulted()
    assert dormant_values == first_values == warm_values
    assert first_elapsed < dormant_elapsed  # recovery replayed, not re-run
    assert warm_elapsed < first_elapsed  # and warm skips the compute too
    assert dormant_injector.injected == warm_injector.injected >= 1
    assert cache.hits > len(dormant_values)  # submissions *and* rebuilds hit


# -- scheduler affinity --------------------------------------------------------


def test_locality_policy_honours_cache_node_hint():
    cluster = fresh_cluster()
    sched = Scheduler(cluster)
    policy = LocalityPolicy()
    request = PlacementRequest(kind="task", label="t", cache_node="worker-1")
    assert policy.choose(request, sched).name == "worker-1"
    # Without the hint the same request goes to the least-loaded node.
    bare = PlacementRequest(kind="task", label="t")
    assert policy.choose(bare, sched).name == "worker-0"


def test_round_robin_ignores_cache_node_hint():
    """The default policy must stay seed-identical, hint or not."""
    from repro.sched.policy import RoundRobinPolicy

    cluster = fresh_cluster()
    sched = Scheduler(cluster)
    policy = RoundRobinPolicy()
    hinted = PlacementRequest(kind="task", label="t", cache_node="worker-1")
    bare = PlacementRequest(kind="task", label="t")
    assert policy.choose(hinted, sched).name == policy.choose(bare, sched).name
