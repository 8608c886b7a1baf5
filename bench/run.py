"""The repository's one benchmark: seven workloads, two clocks, per-layer attribution.

    python bench/run.py [--seed N] [--quick] [--workload NAME ...] [--out PATH]

runs every workload (each in its own fresh subprocess, one at a time)
through a *measurement pass* with tracing off and a *traced pass* under
``cProfile`` and the benchmark's span recorder, prints every metric by
name with its unit and clock, checks outputs, and exits non-zero on any
failed check.  ``bench/README.md`` has the tables; ``BENCHMARK.json``
at the repository root names the metrics.

One workload and one pass is the driver's protocol:

    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs in this process and ends its standard output with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import time

#: Set-up time runs from here: before any import of the program.
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
OUT_DIR = BENCH_DIR / "out"

#: Bump on an incompatible change to the ``--out`` document.
RESULT_SCHEMA = 1
#: Timed repeats never drop below this, however long one takes.
MIN_REPEATS = 5
QUICK_REPEATS = 2

#: Which clock each end-to-end metric reads.
CLOCKS = {"wall_s": "wall", "setup_s": "wall", "peak_rss_mb": "host"}
#: Single functions cited from the profile: metric prefix -> (path under
#: src/repro, function name or None for the whole file).
PROFILED_FUNCTIONS = {
    "cluster.estimate_bytes": ("cluster/serialization.py", "estimate_bytes"),
    "relational.tup": ("relational/tup.py", "__init__"),
    "jobs.fairshare": ("jobs/fairshare.py", None),
}


def load_benchmark_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: List[float]) -> List[float]:
    """First, second, third quartile (a lone value is all three)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, MiB.

    Own peak is ``VmHWM``: ``ru_maxrss`` of a freshly spawned process
    starts at its parent's peak, which would report the driver's size
    for the small workloads.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
                    break
    except OSError:
        pass  # no procfs: keep ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # both in KiB on Linux


def environment_key() -> Dict[str, str]:
    """What golden values depend on besides the seed."""
    import numpy

    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": numpy.__version__,
    }


# -- golden values -----------------------------------------------------------


def load_golden() -> Dict[str, Any]:
    if not GOLDEN_PATH.exists():
        return {}
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def compare_golden(name: str, scale: str, seed: int, cells: Dict[str, Any], outcome) -> str:
    """Count one attempted op per golden cell; returns a status line."""
    if seed != 0:
        return "golden: seed 0 only (cross-checks still ran)"
    golden = load_golden()
    expected = golden.get(scale, {}).get(name)
    if expected is None:
        return f"golden: no {scale} values for {name}; run --write-golden"
    running = environment_key()
    if golden.get("environment") != running:
        return (
            f"golden: recorded under {golden.get('environment')}, running "
            f"{running}; comparison skipped"
        )
    for cell in sorted(set(expected) | set(cells)):
        outcome.op(
            f"golden {cell}",
            cell in expected and cell in cells and expected[cell] == cells[cell],
            f"expected {expected.get(cell)!r}, got {cells.get(cell)!r}",
        )
    return f"golden: {len(expected)} cells compared"


# -- one workload, one pass, this process -------------------------------------


def emit(name: str, metric: str, value: Any, unit: str, clock: str, note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"[{name}] {metric:<40} {shown:>14} {unit:<12} {clock:<8}{note}")


def finish_checks(workload, state, reference, outcomes, name, scale, seed, golden_on):
    """Determinism, cross-checks and golden cells -> (attempted, failures, cells)."""
    from workloads import Outcome

    # Operations are counted once, from the first run: how many timed
    # repeats fit into --seconds must not change `attempted`.
    verdict = Outcome(attempted=reference.attempted)
    cells = reference.exact()
    for index, outcome in enumerate(outcomes):
        verdict.failures += [f"repeat {index}: {f}" for f in outcome.failures]
    drifted = [i for i, outcome in enumerate(outcomes) if outcome.exact() != cells]
    verdict.op(
        "every repeat reproduces the first run's exact values",
        not drifted, f"repeats {drifted} differ",
    )
    if workload.check is not None:
        checked = workload.check(state)
        verdict.attempted += checked.attempted
        verdict.failures += checked.failures
    if golden_on:
        print(f"[{name}] {compare_golden(name, scale, seed, cells, verdict)}")
    return verdict.attempted, verdict.failures, cells


def run_worker(args) -> int:
    """The driver's protocol: one workload, one pass, in this process."""
    from spans import NO_SPANS, SpanRecorder, layer_table
    from workloads import WORKLOADS

    spec = load_benchmark_spec()
    name = args.workload[0]
    workload = WORKLOADS[name]
    traced = args.trace == 1
    scale = "quick" if args.quick else "full"
    recorder = SpanRecorder(name) if traced else NO_SPANS
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{name}.") as scratch:
        state = workload.prepare(args.seed, args.quick, recorder, Path(scratch))
        reference = None
        if workload.warmup:
            reference = workload.repeat(state, NO_SPANS)
            reference.settle()
        setup_s = time.perf_counter() - PROCESS_START

        samples: List[float] = []
        outcomes = []
        if traced:
            # One plain repeat with spans on: the base the profiled
            # repeat's wall is compared with.
            min_repeats, seconds = 1, 0.0
        elif args.quick:
            min_repeats, seconds = QUICK_REPEATS, 0.0
        else:
            min_repeats, seconds = MIN_REPEATS, args.seconds
        started = time.perf_counter()
        while len(samples) < min_repeats or time.perf_counter() - started < seconds:
            gc.collect()
            before = time.perf_counter()
            outcome = workload.repeat(state, recorder)
            samples.append(time.perf_counter() - before)
            outcome.settle()
            outcomes.append(outcome)
        reference = reference or outcomes[0]
        rss_mb = peak_rss_mb()  # before the checks import anything more

        layers: Dict[str, float] = {}
        if traced:
            metrics, layers = traced_metrics(
                spec, workload, state, recorder, outcomes[-1], samples[-1]
            )
        attempted, failures, cells = finish_checks(
            workload, state, reference, outcomes, name, scale, args.seed,
            golden_on=not args.no_golden,
        )

    if traced:
        for metric, entry in metrics.items():
            if entry["value"]:
                emit(name, metric, entry["value"], entry["unit"], entry["clock"])
        print(f"[{name}] profiler self time by layer (src/repro/<layer>/):")
        print(layer_table(layers, metrics["trace.overhead_ratio"]["value"]))
    else:
        q1, median, q3 = quartiles(samples)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {"wall_s": median, "setup_s": setup_s, "peak_rss_mb": rss_mb}
        metrics = {
            metric: {"value": value, "unit": units[metric], "clock": CLOCKS[metric]}
            for metric, value in values.items()
        }
        notes = {
            "wall_s": f" median of {len(samples)}: min {min(samples):.4f} q1 {q1:.4f} "
                      f"q3 {q3:.4f}, bench.wall_iqr_ratio {(q3 - q1) / median:.4f}"
        }
        for metric, entry in metrics.items():
            emit(name, metric, entry["value"], entry["unit"], entry["clock"],
                 notes.get(metric, ""))
        emit(name, "virtual_s", cells["virtual_s"], "virtual_s", "virtual", " exact")
        for cell, value in cells.items():
            if cell != "virtual_s" and not cell.startswith("sha256."):
                emit(name, cell, value, "", "virtual", " exact")
    emit(name, "attempted", attempted, "count", "exact")
    emit(name, "failed", len(failures), "count", "exact")
    for failure in failures:
        print(f"[{name}] FAILED {failure}")

    if args.out:
        document = {
            "workload": name, "trace": args.trace, "seed": args.seed,
            "scale": scale, "wall_samples_s": samples, "metrics": metrics,
            "exact": cells, "attempted": attempted, "failed": len(failures),
            "failures": failures, "layers_self_s": layers,
            "spans": recorder.spans if traced else [],
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": e["value"], "unit": e["unit"]} for m, e in metrics.items()},
    }))
    return 0 if not failures else 1


def traced_metrics(spec, workload, state, recorder, outcome, base_wall):
    """Every per-layer metric of ``BENCHMARK.json`` (0 where a layer is idle),
    and the profiler's self time per layer."""
    from spans import NO_SPANS, fold_profile

    if workload.profile is not None:
        profiled_wall, rows = workload.profile(state)
    else:
        profiler = cProfile.Profile()
        gc.collect()
        before = time.perf_counter()
        profiler.enable()
        try:
            workload.repeat(state, NO_SPANS)
        finally:
            profiler.disable()
        profiled_wall = time.perf_counter() - before
        rows = pstats.Stats(profiler).stats
    folded, functions = fold_profile(rows, SRC)

    values: Dict[str, float] = {"virtual_s": outcome.virtual_s}
    values.update({k: v for k, v in outcome.counts.items() if v is not None})
    if workload.probes is not None:
        values.update(workload.probes(state, recorder))
    totals = recorder.totals()
    values.update(totals)
    if workload.derive is not None:
        values.update(workload.derive(totals, outcome))
    if outcome.counts.get("sim.events"):
        values["sim.events_per_s"] = outcome.counts["sim.events"] / base_wall
    values["trace.overhead_ratio"] = profiled_wall / base_wall
    for prefix, (path, function) in PROFILED_FUNCTIONS.items():
        hits = [
            row for (row_path, row_func), row in functions.items()
            if row_path == path and function in (None, row_func)
        ]
        values[f"{prefix}.self_s"] = sum(self_s for _, self_s in hits)
        if function is not None:
            values[f"{prefix}.calls"] = sum(calls for calls, _ in hits)

    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for layer, self_s in folded.items():
        key = f"{layer}.self_s"
        if key not in declared:
            # Top-level modules without a metric of their own (config.py,
            # errors.py) count with everything outside src/repro.
            key = "other.self_s"
        values[key] = values.get(key, 0.0) + self_s
    exact = set(outcome.counts) | {"virtual_s"}

    def clock(metric: str) -> str:
        if metric in exact:
            return "virtual"
        # Profiler numbers carry the profiler's cost: counts may be
        # cited as counts, self times only as shares.
        if metric.endswith((".self_s", ".calls")):
            return "profile"
        return "wall"

    metrics = {
        metric: {"value": values.get(metric, 0.0), "unit": unit, "clock": clock(metric)}
        for metric, unit in declared.items()
    }
    return metrics, folded


# -- every workload, both passes, one subprocess each -------------------------


def machine() -> Dict[str, Any]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def run_all(args) -> int:
    from spans import chrome_trace
    from workloads import WORKLOADS, scale_constants

    names = args.workload or list(WORKLOADS)
    passes = [args.trace] if args.trace is not None else [0, 1]
    if args.write_golden:
        if args.seed != 0:
            print("bench: --write-golden records seed 0 only", file=sys.stderr)
            return 2
        passes = [0]
    OUT_DIR.mkdir(exist_ok=True)
    results: Dict[str, Dict[str, Any]] = {name: {} for name in names}
    failed = 0
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="parts.") as parts:
        for trace in passes:
            for name in names:
                part = Path(parts) / f"{name}.{trace}.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", str(part),
                ]
                command += ["--quick"] if args.quick else []
                command += ["--no-golden"] if args.write_golden else []
                done = subprocess.run(command, cwd=ROOT)
                if not part.exists():
                    print(f"bench: {name} pass {trace} exited {done.returncode} "
                          "without a result", file=sys.stderr)
                    failed += 1
                    continue
                document = json.loads(part.read_text(encoding="utf-8"))
                results[name]["traced" if trace else "measured"] = document
                failed += document["failed"]

    scale = "quick" if args.quick else "full"
    if args.write_golden:
        if failed:
            print("bench: not writing golden values from a failing run", file=sys.stderr)
            return 1
        golden = load_golden()
        golden["environment"] = environment_key()
        golden.setdefault(scale, {}).update(
            {name: results[name]["measured"]["exact"] for name in names}
        )
        GOLDEN_PATH.write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {GOLDEN_PATH} ({scale}: {', '.join(names)})")
        return 0

    summarize(results)
    document = {
        "schema": RESULT_SCHEMA, **machine(), "seed": args.seed, "scale": scale,
        "seconds": args.seconds, "scale_constants": scale_constants(),
        "bounds": {m["name"]: m["bound"] for m in load_benchmark_spec()["end_to_end"]},
        "workloads": results,
    }
    out = Path(args.out) if args.out else OUT_DIR / f"result-seed{args.seed}-{scale}.json"
    out.write_text(json.dumps(document, indent=1, default=list) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if args.trace_out:
        spans = {name: results[name].get("traced", {}).get("spans", []) for name in names}
        Path(args.trace_out).write_text(
            json.dumps(chrome_trace(spans)) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.trace_out}")
    if failed:
        print(f"bench: {failed} failed checks", file=sys.stderr)
    return 1 if failed else 0


def summarize(results: Dict[str, Dict[str, Any]]) -> None:
    print()
    print(f"{'workload':<16} {'wall_s':>8} {'iqr/med':>8} {'n':>3} {'setup_s':>8} "
          f"{'rss_MiB':>8} {'virtual_s':>12} {'attempted':>9} {'failed':>6}")
    for name, passes in results.items():
        measured = passes.get("measured")
        if measured is None:
            continue
        samples = measured["wall_samples_s"]
        q1, median, q3 = quartiles(samples)
        m = measured["metrics"]
        print(f"{name:<16} {median:>8.3f} {(q3 - q1) / median:>8.4f} {len(samples):>3} "
              f"{m['setup_s']['value']:>8.3f} {m['peak_rss_mb']['value']:>8.1f} "
              f"{measured['exact']['virtual_s']:>12.3f} {measured['attempted']:>9} "
              f"{measured['failed']:>6}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[], metavar="NAME",
                        help="run only this workload (repeatable; default: all seven)")
    parser.add_argument("--seed", type=int, default=0,
                        help="shifts every corpus / traffic / fault seed (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure each workload for this long "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: measurement pass only, 1: traced pass only "
                        "(default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="scale / 8, two repeats, checks still on")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="result JSON (default bench/out/result-seedN-SCALE.json)")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write the traced pass's spans as Chrome trace_event JSON")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate bench/golden.json for this scale (seed 0)")
    parser.add_argument("--no-golden", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: the program is not here: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    unknown = [name for name in args.workload if name not in WORKLOADS]
    if unknown:
        print(f"bench: unknown workload {unknown}; have {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_benchmark_spec()["run_seconds"])
    worker = len(args.workload) == 1 and args.trace is not None and not args.write_golden
    return run_worker(args) if worker else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
