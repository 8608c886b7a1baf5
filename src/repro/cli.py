"""Command-line interface: ``python -m repro [experiment ...]``.

Runs the requested experiment reproductions (default: all) and prints
each measured-vs-paper table.  ``--quick`` uses reduced dataset scales.

Each experiment is a pure function of its id, so a run of several
executes them side by side in forked worker processes, one per CPU the
process may use, and prints the reports in the order given: stdout is
byte-identical to a serial run.  The run stays serial with one
experiment or one CPU, under a tracer or any layer flag (their
end-of-run summaries gather state in this process), in a process that
already runs a second thread, and where ``fork`` is unavailable.  When
stdout is closed early (``repro --quick | head``) the CLI stops without
a traceback and exits :data:`EXIT_CLOSED_STDOUT`.

Observability::

    python -m repro trace fig13d --quick --trace /tmp/gotta.json

The ``trace`` subcommand runs the named experiments with the
virtual-clock tracer installed, prints a per-run time breakdown after
each report, and ``--trace PATH`` writes the collected spans as a
Chrome ``trace_event`` JSON file (load it in ``chrome://tracing`` or
Perfetto).  ``--trace`` also works without the subcommand.

Fault injection (``repro.faults``)::

    python -m repro faults seed=7,tasks=2,nodes=1       # inspect a schedule
    python -m repro fig14a --quick --faults seed=7,tasks=2,nodes=1

The ``faults`` subcommand prints the deterministic schedule a spec
expands to; ``--faults SPEC`` runs the named experiments with that
schedule installed, so every cluster they build injects the same
faults (and recovers from them — outputs stay correct).

Scheduling (``repro.sched``)::

    python -m repro sched                                # list policies
    python -m repro fig13d --quick --scheduler locality
    python -m repro scheduling --quick                   # policy comparison

The ``sched`` subcommand prints the placement-policy catalogue;
``--scheduler NAME`` runs the named experiments with that policy
installed in both engines.  It composes with ``--trace`` (placement
decisions appear as ``sched.place`` spans) and ``--faults`` (policies
steer work around injected outages).

Memory pressure (``repro.mem``)::

    python -m repro mem                                  # spec grammar + defaults
    python -m repro mem on,ram=2gib,spill=0.7            # inspect a policy
    python -m repro fig13d --quick --mem on,ram=2gib
    python -m repro memory --quick                       # spill-vs-die experiment

The ``mem`` subcommand prints the policy a spec expands to; ``--mem
SPEC`` runs the named experiments with that policy installed in every
cluster they build (``on`` enables LRU spill-to-disk and admission
backpressure; ``ram=SIZE`` clamps every node's RAM).  Composes with
``--trace`` (spill/restore appear as ``mem`` spans), ``--faults``
(``ooms=N`` schedules RAM clamps) and ``--scheduler``.

Result caching (``repro.cache``)::

    python -m repro cache                                # spec grammar + defaults
    python -m repro cache on,cap=1gib                    # inspect a policy
    python -m repro fig13d --quick --cache on
    python -m repro caching --quick                      # cold-vs-warm experiment

The ``cache`` subcommand prints the policy a spec expands to; ``--cache
SPEC`` runs the named experiments with lineage-keyed result caching
installed in every cluster they build — one cache shared across the
run, so a repeated pipeline hits.  Composes with ``--trace`` (hits
appear as ``cache`` spans), ``--faults`` (reconstruction replays hit
the cache) and ``--scheduler`` (the locality policy gains cache
affinity).

Workflow specs (``repro.workflow.spec``)::

    python -m repro compile examples/workflows/dice.json
    python -m repro --workflow examples/workflows/demo.json

The ``compile`` subcommand parses and validates one
``repro/workflow-spec@1`` JSON document — editing-time checks: grammar,
unknown operator types, dangling links, cycles — and reports both
compilation targets (pipelined workflow plan and Ray-like script plan).
``--workflow FILE`` *runs* a self-contained spec (one without
``$param`` bindings) through both paradigms and diffs the collected
rows; it takes the place of the experiments, so every layer flag and
``--trace`` apply to it.  Bad specs exit 2 with the grammar on stderr,
like every other spec surface.

Workload generation (``repro.gen``)::

    python -m repro gen                                  # family catalogue + grammar
    python -m repro gen count=5,depth=6                  # 5 random DAGs, run + diff
    python -m repro gen family=raster,scale=2            # one generated family
    python -m repro gen seed=3,emit=/tmp/spec.json       # write the document

The ``gen`` subcommand expands a seeded workload spec: each document
is validated, compiled to both paradigms and (by default) executed
under both with the collected rows diffed — the same contract the
property suites enforce.  ``family=`` selects one of the three curated
task families (``stream``, ``smallsteps``, ``raster``); without it the
random DAG generator runs with the ``depth``/``fanout``/... knobs.
``emit=PATH`` writes strict JSON that ``repro compile`` and
``--workflow`` read back.  Corpus traffic: ``--jobs on,body=gen``
draws each arrival's body from the family catalogue.

Multi-tenant job service (``repro.jobs``)::

    python -m repro jobs                                 # spec grammar + defaults
    python -m repro jobs on,rate=50,tenants=8            # run a traffic simulation
    python -m repro fig13d --quick --jobs on             # experiments as jobs
    python -m repro fairshare --quick                    # fifo-vs-drf experiment

The ``jobs`` subcommand prints the configuration a spec expands to
and, when the spec says ``on``, drives the seeded open-loop traffic
generator through the :class:`repro.jobs.JobService` and prints the
outcome (jobs/sec, queue-latency percentiles, per-tenant shares).
``--jobs SPEC`` runs the named experiments as jobs submitted through a
service instead of direct calls; it composes with every other flag.

Elasticity (``repro.elastic``)::

    python -m repro elastic                              # spec grammar + defaults
    python -m repro elastic on,min=1,max=16              # inspect a policy
    python -m repro jobs on,rate=50 --elastic on,min=1   # autoscaled traffic
    python -m repro elasticity --quick                   # cost-vs-latency experiment

The ``elastic`` subcommand prints the autoscaler policy a spec expands
to; ``--elastic SPEC`` installs it for the run, so every job service
built attaches an :class:`repro.elastic.Autoscaler` that provisions
and drains workers from the ``repro.obs`` gauge signals.  Composes
with ``jobs`` (the traffic run above scales 1..N with load) and
``--trace`` (membership appears as the ``cluster.nodes`` gauge).

Everything per-layer is one row of ``SUBCOMMANDS``: the inspection
subcommand and the run-time ``--flag SPEC`` of a layer share a parser,
error classes and grammar text, and ``build_parser``, the exit-2
spec-error formatter, scope installation and the end-of-run summaries
are all derived from that table (``docs/architecture.md``, "How a
layer is wired").
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import sys
import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional, Tuple

from repro.experiments import ALL_EXPERIMENTS, QUICK_EXPERIMENTS
from repro.cache import ResultCache, cached, parse_cache_spec
from repro.cache.spec import CACHE_GRAMMAR
from repro.config import JobsConfig
from repro.elastic import elastic_enabled, parse_elastic_spec
from repro.elastic.spec import ELASTIC_GRAMMAR
from repro.errors import (
    FaultSpecError,
    GenSpecError,
    InvalidWorkflow,
    ReproError,
    UnknownPolicy,
    WorkflowSpecError,
)
from repro.faults import FaultSchedule, faults_injected
from repro.faults.schedule import FAULT_SPEC_HINT
from repro.jobs import parse_jobs_spec
from repro.jobs.spec import JOBS_GRAMMAR
from repro.mem import memory_managed, parse_mem_spec
from repro.mem.spec import MEM_GRAMMAR
from repro.obs import format_breakdown, tracing, write_chrome_trace
from repro.paradigm import diff_rows, run_both
from repro.sched import policy_catalogue, scheduling, valid_policy

__all__ = ["main", "QUICK_EXPERIMENTS", "EXIT_CLOSED_STDOUT"]

#: Exit status when stdout closes before everything is printed:
#: 128 + SIGPIPE, what a shell reports for a process SIGPIPE ended.
EXIT_CLOSED_STDOUT = 128 + 13

#: Appended to workflow-spec errors from ``compile`` and ``--workflow``.
WORKFLOW_SPEC_HELP = """\
spec grammar: a repro/workflow-spec@1 JSON document
  {"spec": "repro/workflow-spec@1", "name": NAME,
   "operators": [{"id": ID, "type": TYPE, "config": {...}}, ...],
   "links": [{"from": ID, "to": ID, "out": PORT, "in": PORT}, ...]}
config values may use resolution forms:
  {"$param": NAME}                  runtime binding (tables, datasets, costs)
  {"$callable": "module:qualname"}  imported Python UDF
  {"$schema": {FIELD: TYPE, ...}}   schema literal (int/float/string/bool/any)
  {"$predicate": {...}}             declarative predicate tree
examples: examples/workflows/*.json (the four paper tasks, $param-bound);
examples/workflows/demo.json (self-contained, runnable via --workflow)"""


#: Shown by the bare ``gen`` subcommand alongside the family catalogue.
GEN_SPEC_HELP = """\
spec grammar: comma-separated key=value pairs
  seed=N            first seed (default 0)
  count=N           consecutive seeds to generate (default 1)
  family=NAME       stream, smallsteps or raster (default: random DAG)
  scale=F           family scale factor (default 1.0)
  depth=N           random DAG: stages per chain (default 4)
  sources=N         random DAG: max source operators (default 3)
  fanout=F          random DAG: merge probability in [0,1] (default 0.35)
  selectivity=F     random DAG: filter keep-fraction in [0,1] (default 0.5)
  rows=N            random DAG: rows per source (default 12)
  run=on|off        execute under both paradigms and diff rows (default on)
  emit=PATH         write the spec JSON to PATH (count>1 appends -SEED)
examples: repro gen family=raster,scale=2 / repro gen count=5,depth=6,run=off"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the tables and figures of 'Data Science Tasks "
            "Implemented with Scripts versus GUI-Based Workflows' (ICDE 2024)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        help=f"which to run; choices: {', '.join(sorted(ALL_EXPERIMENTS))} "
        "(default: all).  Prefix with 'trace' to also print per-run "
        "virtual-time breakdowns, e.g. 'repro trace fig13d --quick'.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced dataset scales"
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace_event JSON of the run to PATH "
        "(implies tracing; open in chrome://tracing or Perfetto)",
    )
    for sub in SUBCOMMANDS.values():
        if sub.flag is not None:
            parser.add_argument(
                f"--{sub.flag}",
                metavar=sub.metavar,
                default=None,
                help=sub.flag_help,
            )
    return parser


def _fault_summary(injector) -> str:
    return (
        f"faults: {injector.injected} injected, {injector.retries} recovery "
        f"actions, {injector.skipped} skipped (seed="
        f"{injector.schedule.seed})"
    )


def _cache_summary(cache: ResultCache) -> str:
    return (
        f"cache: {cache.hits} hits, {cache.misses} misses "
        f"({cache.hit_rate:.0%} hit rate), {len(cache)} entries "
        f"({cache.total_bytes} bytes), {cache.evictions} evicted"
    )


def _unknown_experiments_message(unknown: List[str], registry) -> str:
    noun = "experiment" if len(unknown) == 1 else "experiments"
    lines = [f"repro: unknown {noun}: {', '.join(unknown)}", "valid experiment ids:"]
    lines.extend(f"  {name}" for name in sorted(registry))
    lines.append("(use --list to print them, 'trace <id>' for a time breakdown)")
    return "\n".join(lines)


# -- subcommand registry -------------------------------------------------------

def _spec_error(context: str, exc: Exception, help_text: str) -> str:
    """The one exit-2 formatter: who failed, why, and the grammar."""
    return f"repro: {context}: {exc}\n{help_text}"


def _handle_sched(spec: Optional[str]) -> int:
    print(policy_catalogue())
    return 0


def _parse_policy(name: str) -> str:
    if not valid_policy(name):
        raise UnknownPolicy(f"unknown policy {name!r}")
    return name


def _inspect(parse, describe, grammar, default=None, then=None):
    """Handler of a layer's inspection subcommand.

    Bare, it prints the dormant ``default()`` and the grammar; given a
    spec, what the spec expands to — and ``then(config)`` decides the
    exit code when there is more to do than describe.
    """

    def handler(spec: Optional[str]) -> int:
        if spec is None:
            print(describe(default()))
            print()
            print(grammar)
            return 0
        config = parse(spec)
        print(describe(config))
        return then(config) if then is not None else 0

    return handler


def _run_traffic(config: JobsConfig) -> int:
    """``repro jobs SPEC`` with ``on``: drive the traffic through a service."""
    if not config.enabled:
        return 0
    from repro.jobs import JobService

    service = JobService(config)
    summary = service.simulate()
    print()
    print(_jobs_summary(summary))
    if not service.queue.drained:
        print("repro: jobs: queue did not drain", file=sys.stderr)
        return 1
    return 0


def _gen_emit_path(base: str, seed: int, multiple: bool) -> str:
    if not multiple:
        return base
    p = Path(base)
    return str(p.with_name(f"{p.stem}-{seed}{p.suffix or '.json'}"))


def _handle_gen(spec: Optional[str]) -> int:
    """Generate seeded workloads; validate, compile, run, diff, emit."""
    from dataclasses import replace

    from repro.gen import (
        describe_gen,
        family_catalogue,
        family_spec,
        generate_spec,
        parse_gen_spec,
    )
    from repro.rayx.compile import compile_script_plan
    from repro.workflow.spec import WorkflowSpec, build_workflow, dump_spec_doc

    if spec is None:
        print(family_catalogue())
        print()
        print(GEN_SPEC_HELP)
        return 0
    request = parse_gen_spec(spec)
    print(describe_gen(request))
    mismatches = 0
    for seed in range(request.seed, request.seed + request.count):
        if request.family is not None:
            doc = family_spec(request.family, seed=seed, scale=request.scale)
        else:
            doc = generate_spec(replace(request.config, seed=seed))
        parsed = WorkflowSpec.from_json(doc)
        if request.emit:
            path = _gen_emit_path(request.emit, seed, request.count > 1)
            try:
                Path(path).write_text(
                    dump_spec_doc(parsed.to_json()) + "\n", encoding="utf-8"
                )
            except OSError as exc:
                raise GenSpecError(f"emit: cannot write {path}: {exc}") from exc
            print(f"  seed {seed}: wrote {path}")
        head = (
            f"  seed {seed}: {parsed.name!r} "
            f"{len(parsed.operators)} operators"
        )
        if not request.run:
            plan = compile_script_plan(build_workflow(parsed))
            print(
                f"{head} -- validated, both paradigms compile "
                f"({plan.num_tasks} script tasks)"
            )
            continue
        workflow, script = run_both(parsed)
        diffs = diff_rows(workflow, script)
        identical = all(diff.identical for diff in diffs)
        mismatches += 0 if identical else 1
        print(
            f"{head} -- workflow {workflow.elapsed_s:.3f}s, "
            f"script {script.elapsed_s:.3f}s, "
            f"{sum(diff.left_rows for diff in diffs)} rows "
            f"{'identical' if identical else 'MISMATCH'}"
        )
    if mismatches:
        print(
            f"repro: gen: paradigms disagree on {mismatches} of "
            f"{request.count} seeds",
            file=sys.stderr,
        )
        return 1
    return 0


def _handle_compile(source: Optional[str]) -> int:
    """Validate one spec file; report both compilation targets."""
    from collections import Counter

    from repro.rayx.compile import compile_script_plan
    from repro.workflow.spec import build_workflow, operator_factory, read_spec

    spec = read_spec(source)
    for op in spec.operators:
        operator_factory(op.type)  # unknown types name the catalogue
    counts = Counter(op.type for op in spec.operators)
    types = ", ".join(
        f"{name} x{count}" if count > 1 else name
        for name, count in sorted(counts.items())
    )
    print(f"workflow {spec.name!r} ({spec.version})")
    print(f"  operators: {len(spec.operators)} ({types})")
    print(f"  links: {len(spec.links)}")
    params = spec.params()
    if params:
        print(f"  params: {', '.join(params)}")
        print(
            "  validation: structural OK (instantiation deferred: "
            "$param bindings are supplied at run time)"
        )
        return 0
    plan = compile_script_plan(build_workflow(spec))
    print(
        f"  workflow plan: {plan.workflow.num_operators} operators, "
        f"{len(plan.workflow.links)} links"
    )
    print(f"  script plan: {plan.num_tasks} tasks")
    print("  validation: OK (both paradigms compile)")
    return 0


def _run_workflow_file(path: str) -> int:
    """Run a self-contained spec through both paradigms; diff rows."""
    from repro.workflow.spec import read_spec

    spec = read_spec(path)
    params = spec.params()
    if params:
        raise WorkflowSpecError(
            f"spec references runtime bindings {params}; only "
            f"self-contained specs run from the command line "
            f"(inspect with 'repro compile {path}')"
        )
    workflow, script = run_both(spec)
    diffs = diff_rows(workflow, script)
    print(
        f"workflow {spec.name!r}: {len(spec.operators)} operators, "
        f"{len(spec.links)} links"
    )
    print(
        f"  workflow paradigm: {workflow.elapsed_s:.3f}s virtual "
        f"({workflow.units} worker instances)"
    )
    print(
        f"  script paradigm:   {script.elapsed_s:.3f}s virtual "
        f"({script.units} tasks)"
    )
    for diff in diffs:
        print(
            f"  sink {diff.sink_id!r}: {diff.left_rows} rows (workflow) vs "
            f"{diff.right_rows} rows (script) -- "
            f"{'identical' if diff.identical else 'MISMATCH'}"
        )
    if not all(diff.identical for diff in diffs):
        print(
            f"repro: --workflow: paradigms disagree on {path}",
            file=sys.stderr,
        )
        return 1
    return 0


@dataclass(frozen=True)
class Subcommand:
    """One row of the CLI table: an inspection subcommand and, for a
    layer, the run-time ``--flag`` that installs it."""

    name: str
    #: ``"none"`` (no spec), ``"optional"`` or ``"required"``.
    arity: str
    handler: Callable[[Optional[str]], int]
    #: Spec-error classes the handler and ``parse`` may raise.
    errors: Tuple[type, ...]
    #: Grammar appended to spec errors by the shared formatter.
    help_text: str
    #: ``--{flag}``: the argparse option, and the ``args`` attribute the
    #: subcommand falls back to when no positional spec is given (so
    #: ``repro faults --faults SPEC`` and friends keep working).
    flag: Optional[str] = None
    metavar: str = "SPEC"
    flag_help: str = ""
    #: What ``--{flag} VALUE`` resolves to before anything runs.
    parse: Optional[Callable[[str], Any]] = None
    #: Installs the parsed value for the run (``repro.layer.Slot.scoped``).
    scope: Optional[Callable[[Any], ContextManager[Any]]] = None
    #: End-of-run line from what ``scope`` yielded.
    summary: Optional[Callable[[Any], str]] = None

    @property
    def usage(self) -> str:
        """Printed on arity errors (``repro: {name}: usage: {usage}``)."""
        spec = {"none": "", "optional": f" [{self.metavar}]"}
        return f"repro {self.name}" + spec.get(self.arity, f" {self.metavar}")


def _layer(name, parse, grammar, flag_help, then=None, **run):
    """Row of a layer whose spec expands to a config: ``repro NAME
    [SPEC]`` prints it through ``grammar.describe`` (bare: the dormant
    ``off`` config), ``--NAME SPEC`` installs it for the run."""
    help_text = grammar.help()
    return Subcommand(
        name, "optional",
        _inspect(parse, grammar.describe, help_text, lambda: parse("off"), then),
        (grammar.error,), help_text, flag=name, flag_help=flag_help, parse=parse,
        **run,
    )


#: Rows with a flag are listed in ``--help`` order.
SUBCOMMANDS = {
    sub.name: sub
    for sub in (
        Subcommand(
            "faults", "required",
            _inspect(FaultSchedule.from_spec, FaultSchedule.describe, FAULT_SPEC_HINT),
            (FaultSpecError,), FAULT_SPEC_HINT,
            flag="faults",
            flag_help="run with a deterministic fault schedule installed; SPEC is "
            "'seed=7,tasks=2,nodes=1,...' or a path to a schedule JSON "
            "(inspect with the 'faults' subcommand: 'repro faults SPEC')",
            parse=FaultSchedule.from_spec,
            scope=faults_injected,
            summary=_fault_summary,
        ),
        Subcommand(
            "sched", "none", _handle_sched,
            (UnknownPolicy,), policy_catalogue(),
            flag="scheduler",
            metavar="NAME",
            flag_help="placement policy installed in both engines for the run "
            "(list with the 'sched' subcommand: 'repro sched')",
            parse=_parse_policy,
            scope=scheduling,
        ),
        _layer(
            "mem", parse_mem_spec, MEM_GRAMMAR,
            "run with a memory-pressure policy installed; SPEC is "
            "'on,ram=2gib,spill=0.7,...' (inspect with the 'mem' "
            "subcommand: 'repro mem SPEC')",
            scope=memory_managed,
        ),
        _layer(
            "cache", parse_cache_spec, CACHE_GRAMMAR,
            "run with lineage-keyed result caching installed; SPEC is "
            "'on,cap=1gib,lookup=0.0001,...' (inspect with the 'cache' "
            "subcommand: 'repro cache SPEC')",
            scope=cached,
            summary=_cache_summary,
        ),
        # --workflow FILE runs instead of installing, so the row has no
        # parse/scope; main() runs it where the experiments would run.
        Subcommand(
            "compile", "required", _handle_compile,
            (WorkflowSpecError, InvalidWorkflow), WORKFLOW_SPEC_HELP,
            flag="workflow",
            metavar="FILE",
            flag_help="run a self-contained workflow-spec JSON through both "
            "paradigms (pipelined engine and Ray-like script plan) and "
            "diff the collected rows (validate with the 'compile' "
            "subcommand: 'repro compile FILE')",
        ),
        # No scope: the parsed config is handed to _run_experiments.
        _layer(
            "jobs", parse_jobs_spec, JOBS_GRAMMAR,
            "run the named experiments as jobs submitted through the "
            "multi-tenant job service; SPEC is 'on,rate=50,policy=drf,...' "
            "(inspect with the 'jobs' subcommand: 'repro jobs SPEC')",
            then=_run_traffic,
        ),
        _layer(
            "elastic", parse_elastic_spec, ELASTIC_GRAMMAR,
            "install an elastic-membership/autoscaler policy for the "
            "run; SPEC is 'on,min=1,max=16,provision=5,...' (inspect with "
            "the 'elastic' subcommand: 'repro elastic SPEC')",
            scope=elastic_enabled,
        ),
        Subcommand(
            "gen", "optional", _handle_gen,
            (GenSpecError, WorkflowSpecError, InvalidWorkflow), GEN_SPEC_HELP,
        ),
    )
}


def _dispatch_subcommand(names: List[str], args) -> Optional[int]:
    """Run ``names`` as a subcommand, or None when it is not one."""
    if not names or names[0] not in SUBCOMMANDS:
        return None
    sub = SUBCOMMANDS[names[0]]
    spec = names[1] if len(names) == 2 else (
        getattr(args, sub.flag) if sub.flag else None
    )
    too_many = len(names) > (1 if sub.arity == "none" else 2)
    if too_many or (spec is None and sub.arity == "required"):
        print(f"repro: {sub.name}: usage: {sub.usage}", file=sys.stderr)
        return 2
    try:
        return sub.handler(spec)
    except sub.errors as exc:
        print(_spec_error(sub.name, exc, sub.help_text), file=sys.stderr)
        return 2


def _install_flags(rows, args, stack: ExitStack, installed: Dict[str, Any]) -> bool:
    """Resolve the given ``--flag VALUE`` of each row and install it.

    Records in ``installed``, by flag, what each resolved to (what its
    scope yielded, else the parsed value); False once a bad value has
    printed its exit-2 diagnostics.
    """
    for sub in rows:
        raw = getattr(args, sub.flag)
        if raw is None:
            continue
        try:
            value = sub.parse(raw)
        except sub.errors as exc:
            print(
                _spec_error(f"--{sub.flag}", exc, sub.help_text), file=sys.stderr
            )
            return False
        if sub.scope is not None:
            value = stack.enter_context(sub.scope(value))
        installed[sub.flag] = value
    return True


def _jobs_summary(summary) -> str:
    """Compact text rendering of :meth:`repro.jobs.JobService.summary`."""
    counts = summary["counts"]

    def seconds(value) -> str:
        return "n/a" if value is None else f"{value:.3f}s"

    lines = [
        f"traffic: {summary['jobs']} jobs submitted, "
        f"{summary['rejected']} rejected at capacity",
        f"  terminal         {counts['completed']} completed, "
        f"{counts['failed']} failed, {counts['cancelled']} cancelled",
        f"  throughput       {summary['virtual_jobs_per_s']:.2f} jobs/s "
        f"over {summary['virtual_makespan_s']:.2f}s (virtual)",
        f"  queue latency    p50 {seconds(summary['p50_queue_s'])}, "
        f"p99 {seconds(summary['p99_queue_s'])}",
        f"  peak queue depth {summary['peak_queue_depth']}",
    ]
    if "elastic" in summary:
        es = summary["elastic"]
        lines.append(
            f"  elastic          {es['scale_ups']} up / {es['scale_downs']} "
            f"down, peak {es['peak_nodes']} nodes, "
            f"{summary['node_seconds']:.1f} node-seconds"
        )
    for tenant, stats in summary["tenants"].items():
        lines.append(
            f"  {tenant:<16} {stats['completed']}/{stats['submitted']} "
            f"completed, p99 queue {seconds(stats['p99_queue_s'])}"
        )
    return "\n".join(lines)


def _render(experiment) -> str:
    """One experiment's report text (what a pool worker sends back).

    The pool pickles a worker's exception back to the parent, and one
    that cannot be rebuilt from its pickle kills the pool's result
    thread, so the run hangs.  Such an exception is raised as a
    :class:`ReproError` naming its class and message instead.
    """
    try:
        return experiment().to_text()
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            raise ReproError(f"{type(exc).__name__}: {exc}") from exc
        raise


def _workers(count: int) -> int:
    """Processes to run ``count`` independent experiments on: the CPUs
    this process may use, capped at ``count``.

    1 (serial) where ``fork`` is unavailable and while a second Python
    thread runs: a forked child keeps only the forking thread, and a
    lock another thread held stays locked in it for good.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, count)


@contextmanager
def _reports(experiments, workers: int) -> Iterator[Iterator[str]]:
    """Each experiment's report text, in the order given.

    With ``workers > 1`` they are rendered in a ``fork`` pool.  It is
    closed and joined once every report is through, and terminated and
    joined on any error or interrupt, so no worker outlives the run.
    Workers ignore SIGINT: a Ctrl-C reaches the parent, which ends them.
    """
    if workers <= 1:
        yield map(_render, experiments)
        return
    import multiprocessing

    pool = multiprocessing.get_context("fork").Pool(
        workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
    )
    try:
        yield pool.imap(_render, experiments, chunksize=1)
    except BaseException:
        pool.terminate()
        pool.join()
        raise
    pool.close()
    pool.join()


def _run_experiments(names: List[str], registry, jobs_config, workers: int) -> int:
    """Run experiments directly, on ``workers`` processes, or as jobs
    when ``--jobs`` enables them."""
    if jobs_config is None or not jobs_config.enabled:
        with _reports([registry[name] for name in names], workers) as reports:
            for text in reports:
                print(text)
                print()
        return 0
    from repro.jobs import JobResult, JobService, JobSpec

    service = JobService(jobs_config)
    for name in names:
        fn = registry[name]
        job = service.run_job(
            JobSpec(
                tenant="cli",
                body="profile",
                cpus=jobs_config.cpus,
                ram_bytes=jobs_config.ram_bytes,
                duration_s=jobs_config.duration_s,
            ),
            body_fn=lambda spec, fn=fn: JobResult(duration_s=0.0, value=fn()),
        )
        if job.state != "completed":
            print(
                f"repro: --jobs: job {job.job_id} ({name}) "
                f"{job.state}: {job.error}",
                file=sys.stderr,
            )
            return 1
        print(job.result.value.to_text())
        print()
    counts = service.counts()
    print(
        f"jobs: {counts['completed']} of {len(service.queue)} completed "
        f"through the job service (policy={jobs_config.policy}, "
        f"placement={jobs_config.placement})"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI; the exit status.  A closed stdout ends the run
    quietly with :data:`EXIT_CLOSED_STDOUT`."""
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # Nothing more can be shown.  What is still buffered goes to
        # devnull, so the interpreter's own flush at exit cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):  # no descriptor behind sys.stdout
            pass
        finally:
            os.close(devnull)
        return EXIT_CLOSED_STDOUT
    return code


def _main(argv: Optional[List[str]]) -> int:
    args = build_parser().parse_args(argv)
    registry = QUICK_EXPERIMENTS if args.quick else ALL_EXPERIMENTS
    if args.list:
        for name in sorted(registry):
            print(name)
        return 0
    names = list(args.experiments)
    layers = [sub for sub in SUBCOMMANDS.values() if sub.parse is not None]
    # A bare subcommand reads its own flag as its spec ('repro mem --mem
    # SPEC', errors under its own name), so that row is not installed.
    own = SUBCOMMANDS.get(names[0]) if len(names) == 1 else None
    installed: Dict[str, Any] = {}
    with ExitStack() as stack:
        # Installed before anything is dispatched, so every layer flag
        # composes with subcommands and --workflow ('repro jobs SPEC
        # --elastic ...' autoscales the traffic run) and a bad one exits 2.
        rows = [sub for sub in layers if sub is not own]
        if not _install_flags(rows, args, stack, installed):
            return 2
        code = _dispatch_subcommand(names, args)
        if code is not None:
            return code
        trace_mode = bool(names) and names[0] == "trace"
        if trace_mode:
            names = names[1:]
        trace_mode = trace_mode or args.trace is not None
        if args.workflow is None:
            names = names or sorted(registry)
            unknown = [name for name in names if name not in registry]
            if unknown:
                print(_unknown_experiments_message(unknown, registry), file=sys.stderr)
                return 2
        if args.trace is not None:
            # Fail fast on an unwritable target instead of crashing after
            # the experiments have already run.
            parent = Path(args.trace).resolve().parent
            if not parent.is_dir():
                print(
                    f"repro: --trace: directory does not exist: {parent}",
                    file=sys.stderr,
                )
                return 2
        tracer = stack.enter_context(tracing()) if trace_mode else None
        if args.workflow is None:
            # The tracer's breakdown and each layer's summary gather
            # state in this process, across experiments: either one
            # keeps the run serial.
            workers = 1 if tracer is not None or installed else _workers(len(names))
            code = _run_experiments(names, registry, installed.get("jobs"), workers)
        else:
            try:
                code = _run_workflow_file(args.workflow)
            except (WorkflowSpecError, InvalidWorkflow) as exc:
                print(_spec_error("--workflow", exc, WORKFLOW_SPEC_HELP), file=sys.stderr)
                return 2
    if tracer is not None:
        print(format_breakdown(tracer))
    for sub in layers:
        if sub.summary is not None and sub.flag in installed:
            print(sub.summary(installed[sub.flag]))
    if args.trace is not None:
        write_chrome_trace(tracer, args.trace)
        print(f"\nwrote Chrome trace: {args.trace}")
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
