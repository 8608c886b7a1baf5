"""The seven benchmark workloads.

Each workload is a :class:`Workload` row: ``prepare`` builds the
seeded inputs (timed into ``setup_s``), ``repeat`` is one timed run
through the program's public entry points, ``check`` runs untimed
cross-checks afterwards, ``probes`` adds the traced pass's direct
per-function timings.  Why each one exists is in its ``why`` string
(copied into ``BENCHMARK.json``) and in ``bench/README.md``.

Two clocks never share a number: everything read off a simulator
result (``virtual_s``, event counts, queue percentiles, row digests)
is *virtual* and exact for a seed; wall time is only ever measured by
the runner around ``repeat``.

Sizes are chosen so one full-scale repeat takes about two seconds on
the 2-core reference box (the driver's budget is ~21 s per run, set-up
included); ``--quick`` divides them by about eight.  Tune the
constants here, not the shape.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from _compat import events_scheduled

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Seconds of calls behind each probe number.
PROBE_SECONDS = 0.4


@dataclass
class Outcome:
    """What one repeat produced, besides its wall time."""

    #: Simulated seconds summed over every run in the repeat (virtual).
    virtual_s: float = 0.0
    #: Exact per-layer counts, keyed by their metric name (virtual).
    counts: Dict[str, Any] = field(default_factory=dict)
    #: sha256 per named output (row multisets, reports, stdout).
    digests: Dict[str, str] = field(default_factory=dict)
    #: Operations checked and the ones that failed.
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Work deferred until the clock has stopped (digesting rows,
    #: parsing a trace file), so checking never counts as wall time.
    after_clock: List[Callable[["Outcome"], None]] = field(default_factory=list)

    def op(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)

    def settle(self) -> None:
        for fn in self.after_clock:
            fn(self)
        self.after_clock.clear()

    def exact(self) -> Dict[str, Any]:
        """Every value that must repeat bit for bit at a fixed seed."""
        cells: Dict[str, Any] = {"virtual_s": self.virtual_s}
        cells.update(self.counts)
        cells.update({f"sha256.{name}": d for name, d in self.digests.items()})
        return cells


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``(seed, quick, recorder, scratch_dir) -> state``
    prepare: Callable[[int, bool, Any, Path], Dict[str, Any]]
    #: ``(state, recorder) -> Outcome`` — the timed region.
    repeat: Callable[[Dict[str, Any], Any], Outcome]
    #: Untimed cross-checks after the timed repeats.
    check: Optional[Callable[[Dict[str, Any]], Outcome]] = None
    #: Traced pass only: ``(state, recorder) -> {metric: value}``.
    probes: Optional[Callable[[Dict[str, Any], Any], Dict[str, float]]] = None
    #: Traced pass only: metrics derived from span totals.
    derive: Optional[Callable[[Dict[str, float], Outcome], Dict[str, float]]] = None
    #: Traced pass only: a profiled repeat that is not an in-process
    #: ``cProfile`` of ``repeat`` — returns ``(wall_s, pstats rows)``.
    profile: Optional[Callable[[Dict[str, Any]], Tuple[float, dict]]] = None
    #: One untimed ``repeat`` before timing (in-process caches).
    warmup: bool = True


def sha256_of(value: Any) -> str:
    text = value if isinstance(value, str) else repr(value)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def row_multiset(table) -> List[Tuple[str, ...]]:
    """Order-free, paradigm-comparable rendering of a sink table."""
    return sorted(tuple(map(str, row.values)) for row in table)


def timed_calls(fn: Callable[[], Any], seconds: float = PROBE_SECONDS):
    """Call ``fn`` for about ``seconds``; returns ``(calls, elapsed_s)``."""
    calls = 0
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        fn()
        calls += 1
        now = time.perf_counter()
        if now >= deadline:
            return calls, now - started


# -- cli_all_quick -----------------------------------------------------------

#: ``--quick`` runs this subset instead of all 17 experiments.
CLI_QUICK_IDS = ("fig12a", "fig13d", "fig14b")


def python_child(args: List[str]):
    """Run ``python ARGS`` with ``src/`` importable; ``(wall_s, completed)``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=170,
    )
    return time.perf_counter() - started, done


def repro_child(args: List[str], profile_out: Optional[Path] = None):
    """Run ``python -m repro ARGS`` in a child, optionally under cProfile."""
    profiler = ["-m", "cProfile", "-o", str(profile_out)] if profile_out else []
    return python_child([*profiler, "-m", "repro", *args])


def cli_prepare(seed, quick, rec, scratch):
    # The only in-process state a fresh child can profit from is the
    # page cache and compiled .pyc files; one `--list` child warms both
    # and is itself the CLI's startup cost.
    with rec.span("cli.startup_s"):
        _, done = repro_child(["--quick", "--list"])
    if done.returncode != 0:
        raise RuntimeError(f"repro --list failed: {done.stderr[-500:]}")
    ids = tuple(CLI_QUICK_IDS) if quick else tuple(done.stdout.split())
    args = ["--quick", *(CLI_QUICK_IDS if quick else ())]
    return {"ids": ids, "args": args, "scratch": scratch}


def cli_repeat(state, rec):
    out = Outcome()
    with rec.span("cli.child"):
        _, done = repro_child(state["args"])
    out.op("exit code", done.returncode == 0, f"exit {done.returncode}")
    headers = {line.split(":", 1)[0] for line in done.stdout.splitlines() if ": " in line}
    for exp_id in state["ids"]:
        out.op(f"report {exp_id}", exp_id in headers, "report header missing")
    out.digests["stdout"] = sha256_of(done.stdout)
    return out


def cli_profile(state):
    import pstats

    path = state["scratch"] / "cli_child.prof"
    wall_s, done = repro_child(state["args"], profile_out=path)
    if done.returncode != 0:
        raise RuntimeError(f"profiled child failed: {done.stderr[-500:]}")
    return wall_s, pstats.Stats(str(path)).stats


def cli_probes(state, rec):
    with rec.span("cli.import_s"):
        _, done = python_child(["-c", "import repro.cli"])
    if done.returncode != 0:
        raise RuntimeError(f"import repro.cli failed: {done.stderr[-500:]}")
    # In-process replay of `--quick`: one span per experiment, one over
    # report rendering — the child cannot be instrumented from outside.
    from repro.cli import QUICK_EXPERIMENTS

    for exp_id in state["ids"]:
        with rec.span(f"experiments.{exp_id}.s"):
            report = QUICK_EXPERIMENTS[exp_id]()
        with rec.span("metrics.report_s"):
            report.to_text()
    return {}


# -- paper_tasks -------------------------------------------------------------

#: The four tasks under both paradigms at the paper's sizes.  Fig 13c
#: runs its 6.8k point only: the 68k point alone costs 2.2 s a repeat,
#: more than the per-run budget leaves.
PAPER_TASKS = (
    ("fig13a", {}),
    ("fig13b", {}),
    ("fig13c", {"sizes": (6800,)}),
    ("fig13d", {}),
    ("fig14a", {}),
    ("fig14b", {}),
)


def paper_prepare(seed, quick, rec, scratch):
    from repro.cli import QUICK_EXPERIMENTS
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.harness import KGE_LARGE, cached_kge_dataset

    # Only the KGE dataset is cached by the harness; the other
    # generators run inside their experiment on every call.
    cached_kge_dataset.cache_clear()
    with rec.span("datasets.build_s"):
        if quick:
            cached_kge_dataset(1500, 4000)
            cached_kge_dataset(4000, 4000)
        else:
            cached_kge_dataset(6800, KGE_LARGE)
    if quick:
        calls = [(exp_id, QUICK_EXPERIMENTS[exp_id], {}) for exp_id, _ in PAPER_TASKS]
    else:
        calls = [(exp_id, ALL_EXPERIMENTS[exp_id], kw) for exp_id, kw in PAPER_TASKS]
    return {"calls": calls}


def paper_repeat(state, rec):
    out = Outcome()
    for exp_id, fn, kwargs in state["calls"]:
        out.attempted += 1
        try:
            with rec.span(f"experiments.{exp_id}.s"):
                report = fn(**kwargs)
            with rec.span("metrics.report_s"):
                text = report.to_text()
        except Exception as exc:  # one experiment failing must not hide the rest
            out.failures.append(f"{exp_id}: {exc!r}")
            continue
        out.op(
            f"report shape {exp_id}",
            text.startswith(f"{exp_id}: ")
            and len(text.splitlines()) >= 3 + len(report.rows)
            and all(row.measured > 0 for row in report.rows),
        )
        out.virtual_s += sum(row.measured for row in report.rows)
        out.digests[exp_id] = sha256_of(
            [(row.series, row.x, row.measured) for row in report.rows]
        )
    return out


# -- corpus_script / corpus_workflow ----------------------------------------

#: ``random_spec`` knobs, total source rows to generate, family scales.
#: Random specs are drawn at consecutive seeds until the corpus holds
#: ``rows_total`` source rows: a spec's cost follows its row count, so a
#: fixed row budget (not a fixed spec count) keeps the work of two
#: seeds within a few percent of each other.
CORPUS = {
    "corpus_script": {
        "full": {"rows": 40, "depth": 8, "rows_total": 5200,
                 "families": {"stream": 16, "smallsteps": 4, "raster": 12}},
        "quick": {"rows": 40, "depth": 8, "rows_total": 650,
                  "families": {"stream": 2, "smallsteps": 1, "raster": 1.5}},
    },
    "corpus_workflow": {
        "full": {"rows": 400, "depth": 8, "rows_total": 60000,
                 "families": {"stream": 64, "smallsteps": 16, "raster": 11}},
        "quick": {"rows": 400, "depth": 8, "rows_total": 7500,
                  "families": {"stream": 8, "smallsteps": 2, "raster": 1.5}},
    },
}

#: Cross-paradigm check: this many default-size random specs plus the
#: three families at scale 1 run under both engines, rows compared.
CROSS_CHECK_SPECS = 10


def source_rows(doc: Dict[str, Any]) -> int:
    return sum(
        len(op["config"]["records"])
        for op in doc["operators"]
        if op["type"] == "jsonl_source"
    )


def build_corpus(seed: int, knobs: Dict[str, Any]) -> List[Tuple[str, Dict[str, Any]]]:
    """``[(group, spec document)]`` for ``seed`` — a function of it alone."""
    from repro.gen import family_spec, random_spec

    docs: List[Tuple[str, Dict[str, Any]]] = []
    budget = knobs["rows_total"]
    total = 0
    offset = 0
    # Skip a spec that would overshoot by more than 0.5 %; small specs
    # are common enough that the budget fills within a few draws.
    while total < budget * 0.995 and offset < 20 * budget // knobs["rows"]:
        doc = random_spec(seed + offset, rows=knobs["rows"], depth=knobs["depth"])
        offset += 1
        rows = source_rows(doc)
        if total + rows <= budget * 1.005:
            docs.append(("random", doc))
            total += rows
    for family, scale in knobs["families"].items():
        docs.append((family, family_spec(family, seed=seed, scale=scale)))
    return docs


def corpus_prepare(name: str):
    def prepare(seed, quick, rec, scratch):
        import repro.gen.operators  # noqa: F401  (registers the family source types)

        knobs = CORPUS[name]["quick" if quick else "full"]
        with rec.span("gen.spec_s"):
            docs = build_corpus(seed, knobs)
        spec_bytes = sum(len(json.dumps(doc)) for _, doc in docs)
        return {"docs": docs, "spec_bytes": spec_bytes, "seed": seed}

    return prepare


def _digest_tables(out: Outcome, tables: List[Tuple[str, str, str, Any]]) -> None:
    groups: Dict[str, List[Any]] = {}
    for group, spec_name, sink_id, table in tables:
        groups.setdefault(group, []).append((spec_name, sink_id, row_multiset(table)))
    for group, rows in groups.items():
        out.digests[f"rows.{group}"] = sha256_of(rows)


def corpus_repeat(paradigm: str):
    def repeat(state, rec):
        from repro.cluster import build_cluster
        from repro.rayx.compile import compile_script_plan
        from repro.sim import Environment
        from repro.workflow import run_workflow
        from repro.workflow.spec import WorkflowSpec, build_workflow

        out = Outcome()
        events = tasks = operators = 0
        tables: List[Tuple[str, str, str, Any]] = []
        for group, doc in state["docs"]:
            out.attempted += 1
            try:
                with rec.span("workflow.spec_parse_s"):
                    spec = WorkflowSpec.from_json(doc)
                with rec.span("workflow.build_s"):
                    workflow = build_workflow(spec)
                cluster = build_cluster(Environment())
                if paradigm == "script":
                    with rec.span("rayx.compile_s"):
                        plan = compile_script_plan(workflow)
                    with rec.span("rayx.run_s"):
                        sinks = plan.run(cluster=cluster)
                    out.virtual_s += cluster.env.now
                    tasks += plan.num_tasks
                else:
                    with rec.span("workflow.run_s"):
                        result = run_workflow(cluster, workflow)
                    out.virtual_s += result.elapsed_s
                    sinks = result.results
            except Exception as exc:  # one spec failing must not hide the rest
                out.failures.append(f"{doc['name']}: {exc!r}")
                continue
            events += events_scheduled(cluster.env)
            operators += len(spec.operators)
            for sink_id, table in sorted(sinks.items()):
                tables.append((group, doc["name"], sink_id, table))
        out.counts["sim.events"] = events
        out.counts["workflow.operators"] = operators
        out.counts["gen.spec_bytes"] = state["spec_bytes"]
        if paradigm == "script":
            out.counts["rayx.tasks"] = tasks
        if rec.enabled:  # the probes' inputs; not held across timed repeats
            state["sink_tables"] = [table for _, _, _, table in tables]
        out.after_clock.append(lambda o: _digest_tables(o, tables))
        return out

    return repeat


def corpus_check(state):
    """Both paradigms on a scale-1 corpus: sink row multisets must agree."""
    import repro.gen.operators  # noqa: F401
    from repro.cluster import build_cluster
    from repro.gen import FAMILIES, family_spec, random_spec
    from repro.rayx.compile import compile_script_plan
    from repro.sim import Environment
    from repro.workflow import run_workflow
    from repro.workflow.spec import WorkflowSpec, build_workflow

    seed = state["seed"]
    docs = [random_spec(seed + i) for i in range(CROSS_CHECK_SPECS)]
    docs += [family_spec(family, seed=seed, scale=1.0) for family in FAMILIES]
    out = Outcome()
    for doc in docs:
        out.attempted += 1
        try:
            spec = WorkflowSpec.from_json(doc)
            engine = run_workflow(build_cluster(Environment()), build_workflow(spec))
            script = compile_script_plan(build_workflow(spec)).run(
                cluster=build_cluster(Environment())
            )
            same = sorted(engine.results) == sorted(script) and all(
                row_multiset(engine.results[sink]) == row_multiset(table)
                for sink, table in script.items()
            )
        except Exception as exc:
            out.failures.append(f"cross-paradigm {doc['name']}: {exc!r}")
            continue
        if not same:
            out.failures.append(f"cross-paradigm {doc['name']}: row multisets differ")
    return out


def _captured_rows(state) -> List[Any]:
    """Sink rows of the last repeat: the probes' realistic inputs."""
    rows = [row for table in state["sink_tables"] for row in table]
    if not rows:
        raise RuntimeError("no sink rows captured for the probes")
    return rows[:2000]


def corpus_script_probes(state, rec):
    from repro.cluster import build_cluster, estimate_bytes
    from repro.rayx.runtime import run_script
    from repro.sim import Environment

    values = [row.values for row in _captured_rows(state)]
    calls, elapsed = timed_calls(lambda: estimate_bytes(values))
    metrics = {"cluster.estimate_bytes.us_per_row": 1e6 * elapsed / (calls * len(values))}

    calls, elapsed = timed_calls(lambda: build_cluster(Environment()))
    metrics["cluster.build_us"] = 1e6 * elapsed / calls

    payload = values[:50]
    ops = 200

    def putget(rt):
        for _ in range(ops):
            ref = yield from rt.put(payload)
            yield from rt.get(ref)

    calls, elapsed = timed_calls(
        lambda: run_script(build_cluster(Environment()), putget, num_cpus=4)
    )
    metrics["rayx.putget.ops_per_s"] = 2 * ops * calls / elapsed

    tasks = 500

    def storm(rt):
        refs = [rt.submit(_add, i, i + 1) for i in range(tasks)]
        yield from rt.get_all(refs)

    calls, elapsed = timed_calls(
        lambda: run_script(build_cluster(Environment()), storm, num_cpus=4)
    )
    metrics["rayx.submit.tasks_per_s"] = tasks * calls / elapsed
    return metrics


def _add(ctx, a, b):
    return a + b


def corpus_workflow_probes(state, rec):
    from repro.cluster import build_cluster
    from repro.relational import FieldType, Schema, Table, Tuple as Row
    from repro.sim import Environment
    from repro.workflow import Workflow, run_workflow
    from repro.workflow.operators import MapOperator, SinkOperator, TableSource

    rows = _captured_rows(state)
    pairs = [(row.schema, row.values) for row in rows]
    calls, elapsed = timed_calls(lambda: [Row(schema, values) for schema, values in pairs])
    metrics = {"relational.tup_validate.us_per_row": 1e6 * elapsed / (calls * len(pairs))}

    schema = rows[0].schema
    raw = [values for row_schema, values in pairs if row_schema == schema]
    calls, elapsed = timed_calls(lambda: Table.from_rows(schema, raw))
    metrics["relational.table_from_rows.us_per_row"] = 1e6 * elapsed / (calls * len(raw))

    n = 5000
    flat = Schema.of(id=FieldType.INT, score=FieldType.FLOAT)
    table = Table.from_rows(flat, [[i, (i % 10) / 10.0] for i in range(n)])

    def bump(row):
        return [row["id"], row["score"] + 1.0]

    def map_pipeline():
        wf = Workflow("rows")
        src = wf.add_operator(TableSource("src", table))
        mapper = wf.add_operator(MapOperator("bump", flat, bump))
        sink = wf.add_operator(SinkOperator("sink"))
        wf.link(src, mapper)
        wf.link(mapper, sink)
        run_workflow(build_cluster(Environment()), wf)

    calls, elapsed = timed_calls(map_pipeline)
    metrics["workflow.map_rows_per_s"] = n * calls / elapsed
    return metrics


# -- jobs_flood --------------------------------------------------------------

#: The `bench_jobs` flood, compressed: arrivals far above the ~16 jobs/s
#: drain rate so the queue passes ``min_depth`` before it drains.  The
#: job count is fixed (the seeded Poisson stream is cut at ``jobs``):
#: dispatch cost grows with the square of the backlog, so a free count
#: would turn seed-to-seed Poisson scatter into wall-time scatter.
FLOOD = {
    "full": {"rate_per_s": 400.0, "horizon_s": 3.3, "jobs": 1100, "min_depth": 1000},
    "quick": {"rate_per_s": 400.0, "horizon_s": 0.6, "jobs": 140, "min_depth": 100},
}
FLOOD_BASE_SEED = 42


def flood_prepare(seed, quick, rec, scratch):
    from repro.config import GIB, JobsConfig
    from repro.jobs.traffic import TrafficGenerator

    knobs = FLOOD["quick" if quick else "full"]
    config = JobsConfig(
        enabled=True, seed=FLOOD_BASE_SEED + seed, rate_per_s=knobs["rate_per_s"],
        horizon_s=knobs["horizon_s"], tenants=8, cpus=2, ram_bytes=1 * GIB,
        duration_s=1.0,
    )
    with rec.span("jobs.traffic_s"):
        arrivals = TrafficGenerator(config).arrivals()
    if len(arrivals) < knobs["jobs"]:
        raise RuntimeError(
            f"traffic seed {config.seed} gave {len(arrivals)} arrivals, "
            f"need {knobs['jobs']}"
        )
    return {"config": config, "arrivals": arrivals[: knobs["jobs"]], "knobs": knobs}


def flood_repeat(state, rec):
    from repro.jobs import JobService

    out = Outcome()
    service = JobService(state["config"])
    # Open loop in virtual time: arrivals are precomputed, so generator
    # lateness is 0 and queue latency runs from the virtual due time.
    with rec.span("jobs.simulate"):
        summary = service.simulate(list(state["arrivals"]))
    jobs = len(state["arrivals"])
    out.op("queue drained", service.queue.drained)
    out.op(
        "every job completed",
        summary["jobs"] == jobs and summary["counts"]["completed"] == jobs,
        f"{summary['counts']}",
    )
    out.op(
        "deep queue",
        summary["peak_queue_depth"] >= state["knobs"]["min_depth"],
        f"peak depth {summary['peak_queue_depth']}",
    )
    out.virtual_s = summary["virtual_makespan_s"]
    out.counts.update({
        "sim.events": events_scheduled(service.env),
        "jobs.completed": summary["counts"]["completed"],
        "jobs.peak_queue_depth": summary["peak_queue_depth"],
        "jobs.queue_p50_virtual_s": summary["p50_queue_s"],
        "jobs.queue_p99_virtual_s": summary["p99_queue_s"],
        "jobs.virtual_jobs_per_s": summary["virtual_jobs_per_s"],
    })
    out.digests["summary"] = sha256_of(json.dumps(summary, sort_keys=True))
    return out


def flood_derive(totals, outcome):
    jobs = outcome.counts["jobs.completed"]
    return {"jobs.dispatch_us_per_job": 1e6 * totals["jobs.simulate"] / jobs}


# -- kernel_mix --------------------------------------------------------------

KERNEL_SCALE = {"full": 5.0, "quick": 0.6}


def timeout_chain(scale):
    from repro.sim import Environment

    n = int(20000 * scale)
    env = Environment()

    def proc(env, n):
        for _ in range(n):
            yield env.timeout(1.0)

    for _ in range(10):
        env.process(proc(env, n))
    env.run()
    return env


def process_churn(scale):
    from repro.sim import Environment

    n = int(40000 * scale)
    env = Environment()

    def leaf(env):
        yield env.timeout(0.5)
        return 1

    def spawner(env, n):
        for _ in range(n):
            yield env.process(leaf(env))

    env.process(spawner(env, n))
    env.run()
    return env


def resource_contention(scale):
    from repro.sim import Environment, Resource

    rounds = int(4000 * scale)
    env = Environment()
    res = Resource(env, capacity=2)

    def worker(env, res, rounds):
        for _ in range(rounds):
            yield res.request()
            yield env.timeout(0.25)
            res.release()

    for _ in range(8):
        env.process(worker(env, res, rounds))
    env.run()
    return env


def store_pingpong(scale):
    from repro.sim import Environment, Store

    n = int(20000 * scale)
    env = Environment()
    store = Store(env, capacity=8)

    def producer(env, store, n):
        for i in range(n):
            yield store.put(i)

    def consumer(env, store, n):
        for _ in range(n):
            yield store.get()

    for _ in range(2):
        env.process(producer(env, store, n))
        env.process(consumer(env, store, n))
    env.run()
    return env


KERNEL_LOOPS = (timeout_chain, process_churn, resource_contention, store_pingpong)


def kernel_prepare(seed, quick, rec, scratch):
    # Pure kernel loops take no data: the seed changes nothing here.
    return {"scale": KERNEL_SCALE["quick" if quick else "full"]}


def kernel_repeat(state, rec):
    out = Outcome()
    total = 0
    for loop in KERNEL_LOOPS:
        with rec.span(f"sim.{loop.__name__}"):
            env = loop(state["scale"])
        events = events_scheduled(env)
        out.op(f"{loop.__name__} ran", events > 0)
        out.counts[f"sim.{loop.__name__}.events"] = events
        out.virtual_s += env.now
        total += events
    out.counts["sim.events"] = total
    return out


def kernel_derive(totals, outcome):
    return {
        f"sim.{loop.__name__}.events_per_s": (
            outcome.counts[f"sim.{loop.__name__}.events"]
            / totals[f"sim.{loop.__name__}"]
        )
        for loop in KERNEL_LOOPS
    }


# -- layers_on ---------------------------------------------------------------

LAYERS = {
    "full": {"experiments": ("fig13a", "fig13d", "fig14a", "scenarios"),
             "traffic_jobs": 600},
    "quick": {"experiments": ("fig13d", "scenarios"), "traffic_jobs": 75},
}
#: RAM is clamped low enough that the GOTTA model spills: with 8 GiB
#: nodes the memory layer is installed but never does anything.
LAYER_FLAGS = (
    "--scheduler", "locality", "--mem", "on,ram=2gib,spill=0.7",
    "--cache", "on", "--jobs", "on", "--elastic", "on,min=1,max=8",
)
FAULT_BASE_SEED = 7
TRAFFIC_SPEC = "on,seed={seed},rate=40,horizon=30,tenants=4,cpus=2"
ELASTIC_SPEC = "on,min=1,max=8,provision=2,interval=0.5,cooldown=1,idle=1"

_MEASURED = re.compile(r"^(?:script|workflow)\s+\S+\s+(\d+\.\d+)\s", re.M)
_FAULTS = re.compile(r"^faults: (\d+) injected, (\d+) recovery actions", re.M)
_CACHE = re.compile(r"^cache: (\d+) hits, (\d+) misses", re.M)
_JOBS = re.compile(r"^jobs: (\d+) of (\d+) completed", re.M)


def layers_prepare(seed, quick, rec, scratch):
    from repro.jobs import parse_jobs_spec
    from repro.jobs.traffic import TrafficGenerator

    knobs = LAYERS["quick" if quick else "full"]
    traffic = parse_jobs_spec(TRAFFIC_SPEC.format(seed=seed))
    arrivals = TrafficGenerator(traffic).arrivals()
    if len(arrivals) < knobs["traffic_jobs"]:
        raise RuntimeError(f"traffic seed {seed} gave only {len(arrivals)} arrivals")
    base = [*knobs["experiments"], "--quick"]
    trace_only = str(scratch / "trace_only.json")
    trace_all = str(scratch / "trace_all.json")
    return {
        "experiments": knobs["experiments"],
        "legs": {
            "control": base,
            "trace": [*base, "--trace", trace_only],
            "all": [
                *base, "--trace", trace_all,
                "--faults", f"seed={FAULT_BASE_SEED + seed},tasks=2,nodes=1",
                *LAYER_FLAGS,
            ],
        },
        "trace_all": trace_all,
        "traffic": traffic,
        "arrivals": arrivals[: knobs["traffic_jobs"]],
    }


def _cli_main(argv: List[str]) -> Tuple[int, str]:
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def _read_layer_trace(out: Outcome, path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    counters = doc["otherData"]["metrics"]["counters"]
    out.counts["obs.spans"] = sum(1 for e in doc["traceEvents"] if e.get("ph") == "X")
    out.counts["sched.placements"] = sum(
        value for key, value in counters.items() if key.startswith("sched.placements")
    )
    out.counts["mem.spills"] = counters.get("objectstore.spill.count", 0)


def layers_repeat(state, rec):
    from repro.jobs import JobService
    from repro.obs import Tracer, tracing

    out = Outcome()
    texts: Dict[str, str] = {}
    wanted = len(state["experiments"])
    for leg, argv in state["legs"].items():
        out.attempted += 1
        try:
            with rec.span(f"leg.{leg}"):
                code, texts[leg] = _cli_main(argv)
        except Exception as exc:  # a leg failing must not hide the others
            out.failures.append(f"leg {leg}: {exc!r}")
            continue
        if code != 0:
            out.failures.append(f"leg {leg}: exit {code}")
        reports = sum(1 for line in texts[leg].splitlines() if line.startswith("series "))
        out.op(f"leg {leg} reports", reports == wanted, f"{reports} of {wanted}")
        out.virtual_s += sum(float(v) for v in _MEASURED.findall(texts[leg]))
    if "control" in texts and "trace" in texts:
        # Tracing has zero virtual cost: the traced run prints the very
        # same reports before its breakdown.
        out.op("tracing leaves reports identical",
               texts["trace"].startswith(texts["control"]))
    everything = texts.get("all", "")
    faults, cache, jobs = (p.search(everything) for p in (_FAULTS, _CACHE, _JOBS))
    out.op("every experiment ran as a job",
           bool(jobs) and int(jobs[1]) == int(jobs[2]) == wanted)
    out.op("fault and cache summaries printed", bool(faults and cache))
    if faults and cache:
        hits, misses = int(cache[1]), int(cache[2])
        out.counts.update({
            "faults.injected": int(faults[1]), "faults.recoveries": int(faults[2]),
            "cache.hits": hits, "cache.misses": misses,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        })
    # Shallow queue with the autoscaler attached — open loop in virtual
    # time, arrivals precomputed, traced like the `all` leg.
    tracer = Tracer()
    with rec.span("leg.traffic"), tracing(tracer):
        service = JobService(state["traffic"], elastic=ELASTIC_SPEC)
        summary = service.simulate(list(state["arrivals"]))
    out.op(
        "elastic traffic drained",
        service.queue.drained
        and summary["counts"]["completed"] == len(state["arrivals"]),
        f"{summary['counts']}",
    )
    out.virtual_s += summary["virtual_makespan_s"]
    out.counts.update({
        "elastic.scale_ups": summary["elastic"]["scale_ups"],
        "elastic.scale_downs": summary["elastic"]["scale_downs"],
        "elastic.node_seconds_virtual": summary["node_seconds"],
    })
    state["tracer"] = tracer
    out.after_clock.append(lambda o: _read_layer_trace(o, state["trace_all"]))
    out.after_clock.append(lambda o: o.digests.update(
        {leg: sha256_of(text.replace(state["trace_all"], "TRACE"))
         for leg, text in texts.items() if leg != "trace"}
    ))
    return out


def layers_derive(totals, outcome):
    control = totals["leg.control"]
    return {
        "obs.overhead_ratio": totals["leg.trace"] / control,
        "layers.overhead_ratio": totals["leg.all"] / control,
    }


def layers_probes(state, rec):
    from repro.cache import fingerprint_value
    from repro.obs import write_chrome_trace

    with rec.span("obs.export_s"):
        write_chrome_trace(state["tracer"], Path(state["trace_all"]).with_name("traffic.json"))
    payload = [(arrival.time_s, dataclasses.astuple(arrival.spec))
               for arrival in state["arrivals"][:50]]
    calls, elapsed = timed_calls(lambda: fingerprint_value(payload))
    return {"cache.fingerprint.us_per_call": 1e6 * elapsed / calls}


# -- registry ----------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cli_all_quick",
            "child `python -m repro --quick`, all 17 experiments: the one command a "
            "user waits for; imports, cli, datasets, experiments and report "
            "rendering are paid on every call and dominate only here",
            cli_prepare, cli_repeat, probes=cli_probes, profile=cli_profile,
            warmup=False,
        ),
        Workload(
            "paper_tasks",
            "fig13a-d, fig14a-b in process at paper sizes (fig13c at 6.8k), layers "
            "dormant: the data plane (relational, cluster.serialization, "
            "workflow.engine, tasks, ml) does the work, the kernel under 5 %",
            paper_prepare, paper_repeat,
        ),
        Workload(
            "corpus_script",
            "generated spec corpus (random DAGs to 5200 source rows + stream@16, "
            "smallsteps@4, raster@12) through from_json, compile_script_plan, "
            "plan.run: rayx and cluster.serialization.estimate_bytes",
            corpus_prepare("corpus_script"), corpus_repeat("script"),
            check=corpus_check, probes=corpus_script_probes,
        ),
        Workload(
            "corpus_workflow",
            "same generator (60000 source rows + stream@64, smallsteps@16, "
            "raster@11) through from_json, build_workflow, run_workflow: spec "
            "parse/validate, workflow.engine, relational; flat under a rayx change",
            corpus_prepare("corpus_workflow"), corpus_repeat("workflow"),
            check=corpus_check, probes=corpus_workflow_probes,
        ),
        Workload(
            "jobs_flood",
            "JobService.simulate on a 1100-job seeded flood (8 tenants, DRF, queue "
            "depth over 1000): control plane only, jobs.fairshare, jobs.queue, "
            "sched; engines idle; open loop in virtual time",
            flood_prepare, flood_repeat, derive=flood_derive,
        ),
        Workload(
            "kernel_mix",
            "timeout_chain, process_churn, resource_contention, store_pingpong at "
            "scale 5 on the repro.sim public API: sim.core and sim.resources do "
            "all the work, nothing above the kernel runs",
            kernel_prepare, kernel_repeat, derive=kernel_derive,
        ),
        Workload(
            "layers_on",
            "repro.cli.main on fig13a fig13d fig14a scenarios, bare, traced, and "
            "with trace+faults+sched+mem+cache+jobs+elastic, plus autoscaled "
            "traffic: every opt-in layer installed and working, kernel traced",
            layers_prepare, layers_repeat, derive=layers_derive, probes=layers_probes,
        ),
    )
}


def scale_constants() -> Dict[str, Any]:
    """Every size knob, for the result document."""
    return {
        "cli_all_quick": {"quick_ids": CLI_QUICK_IDS},
        "paper_tasks": {exp_id: kwargs for exp_id, kwargs in PAPER_TASKS},
        **CORPUS,
        "cross_check_specs": CROSS_CHECK_SPECS,
        "jobs_flood": FLOOD,
        "kernel_mix": KERNEL_SCALE,
        "layers_on": {**LAYERS, "flags": LAYER_FLAGS, "traffic": TRAFFIC_SPEC,
                      "elastic": ELASTIC_SPEC},
        "probe_seconds": PROBE_SECONDS,
    }
