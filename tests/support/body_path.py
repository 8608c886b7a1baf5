"""One fixed script that reaches every way ``repro.rayx`` runs a body;
``tests/rayx/test_body_exactness.py`` digests what :func:`observe` sees."""

from repro.cache import cached
from repro.faults import FaultEvent, FaultSchedule, faults_injected
from repro.obs import tracing
from repro.rayx import run_script
from repro.tasks import fresh_cluster

SCHEDULE = FaultSchedule(
    events=(
        # Due at stage-0's first compute boundary on a charged run, and
        # inside its lookup window (2.012 .. 2.022) on the warm one.
        FaultEvent(2.015, "task", target="stage-0"),
        # Compute-boundary fault with progress before the crash; never
        # falls due on the warm run (the replay is over by 2.03).
        FaultEvent(2.5, "task", target="stage-2", delay_s=0.25),
        # stage-1's only replica sits unread on worker-1: lost, rebuilt
        # from lineage when the actor dereferences it.
        FaultEvent(6.0, "node", target="worker-1", duration_s=1.0),
        # The plain-function task's result, likewise.
        FaultEvent(7.0, "replica", target="tail"),
    )
)


def stage(ctx, shared, k):
    yield from ctx.compute(1.0)
    part = yield from ctx.put([k] * 8, label=f"part-{k}")
    yield from ctx.model_compute(2.0e9)
    values = yield from ctx.get(part)
    return [value + len(shared) for value in values]


def tail(ctx, shared, k):
    return [k + len(shared)] * 4


class Tally:
    def __init__(self):
        self.total = 0

    def add(self, ctx, values):
        yield from ctx.compute(0.25)
        self.total += sum(values)
        return self.total

    def read(self, ctx):
        return self.total


def run_once(runtimes):
    def driver(rt):
        runtimes.append(rt)
        shared = yield from rt.put(list(range(64)), label="shared")
        refs = [rt.submit(stage, shared, k, label=f"stage-{k}") for k in range(3)]
        refs.append(rt.submit(tail, shared, 3, label="tail"))
        # The outage and the replica loss land while results sit unread.
        yield rt.env.timeout(8.0)
        tally = rt.create_actor(Tally)
        calls = [tally.call("add", refs[1]), tally.call("read")]
        values = yield from rt.get_all(refs)
        totals = yield from rt.get_all(calls)
        tally.kill()
        return values, totals

    cluster = fresh_cluster()
    result = run_script(cluster, driver, num_cpus=4)
    return result, cluster.env.now


def observe():
    """Everything the script lets an observer see, JSON-ready."""
    runtimes = []
    with tracing() as tracer, faults_injected(SCHEDULE) as injector:
        runs = [run_once(runtimes)]  # faults only: reconstruction is charged
        with cached("on,lookup=0.01") as cache:
            runs.append(run_once(runtimes))  # cold: misses, then replayed rebuilds
            runs.append(run_once(runtimes))  # warm: every task a replay
    names = {span.span_id: span.name for span in tracer.spans}
    return {
        "runs": runs,
        "spans": [
            (
                span.run_id,
                span.name,
                span.category,
                span.node,
                names.get(span.parent_id),
                sorted(span.attrs.items()),
                span.start_s,
                span.end_s,
            )
            for span in tracer.spans
        ],
        "counters": tracer.metrics.snapshot()["counters"],
        "cache": cache.stats(),
        "faults": (injector.injected, injector.retries, injector.skipped),
        "accounts": [
            sorted(
                (name, account.outstanding, account.total)
                for name, account in rt.scheduler.accounts.items()
            )
            for rt in runtimes
        ],
        "tasks": [(rt.tasks_submitted, rt.tasks_completed) for rt in runtimes],
    }
