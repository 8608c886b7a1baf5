"""Smoke test of the benchmark itself (outside tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest bench/tests -q

Runs ``bench/run.py --quick`` twice (about 20 s each) and checks the
contract the driver and ``compare.py`` rely on.
"""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two ``--quick`` result documents of the same commit and seed."""
    out = tmp_path_factory.mktemp("bench")
    documents = []
    for index in range(2):
        path = out / f"quick{index}.json"
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--quick", "--out", str(path)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        documents.append(json.loads(path.read_text(encoding="utf-8")))
    return documents


def test_quick_run_covers_every_workload_with_no_failure(quick_runs):
    document = quick_runs[0]
    assert list(document["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, passes in document["workloads"].items():
        for which in ("measured", "traced"):
            assert passes[which]["failed"] == 0, (name, passes[which]["failures"])
            assert passes[which]["attempted"] >= 1


def test_metric_names_are_the_ones_benchmark_json_declares(quick_runs):
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert "setup_s" in end_to_end
    produced = set()
    for passes in quick_runs[0]["workloads"].values():
        for which, declared in (("measured", end_to_end), ("traced", per_layer)):
            metrics = passes[which]["metrics"]
            assert set(metrics) == set(declared)
            for metric, entry in metrics.items():
                assert NAME.fullmatch(metric)
                assert entry["unit"] == declared[metric]
                if entry["value"]:
                    produced.add(metric)
        for value in passes["measured"]["metrics"].values():
            assert value["value"] > 0  # end-to-end metrics are never 0
    # A declared metric no workload ever fills is a typo in a span,
    # count or probe name.  Scale-downs need the full-scale traffic, and
    # `--quick` replays only some experiments.
    replayed = set(workloads.CLI_QUICK_IDS) | {e for e, _ in workloads.PAPER_TASKS}
    idle = {m for m in per_layer if m.startswith("experiments.") and m.endswith(".s")
            and m.split(".")[1] not in replayed}
    assert set(per_layer) - produced <= idle | {"elastic.scale_downs"}


def test_exact_values_repeat_across_runs(quick_runs):
    first, second = quick_runs
    for name in first["workloads"]:
        for which in ("measured", "traced"):
            assert (
                first["workloads"][name][which]["exact"]
                == second["workloads"][name][which]["exact"]
            ), name


def steady(document):
    """The document with tight, controlled wall samples (quick runs
    have two noisy repeats; compare.py's rules are what is under test)."""
    document = copy.deepcopy(document)
    for passes in document["workloads"].values():
        passes["measured"]["wall_samples_s"] = [1.00, 1.01, 1.02, 1.01, 1.00]
    return document


def write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def test_compare_says_same_for_a_document_against_itself(quick_runs, tmp_path, capsys):
    path = write(tmp_path, "a.json", steady(quick_runs[0]))
    assert compare.main([path, path]) == 0
    table = capsys.readouterr().out
    assert "worse" not in table and "unresolved" not in table
    assert table.count(" same") == 6 * len(SPEC["workloads"])


def test_compare_says_worse_for_wall_beyond_the_bound(quick_runs, tmp_path, capsys):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    base = steady(quick_runs[0])
    slow = copy.deepcopy(base)
    victim = slow["workloads"]["kernel_mix"]["measured"]
    victim["wall_samples_s"] = [s * (1.1 + bound) for s in victim["wall_samples_s"]]
    assert compare.main(
        [write(tmp_path, "a.json", base), write(tmp_path, "b.json", slow)]
    ) == 1
    worse = [line for line in capsys.readouterr().out.splitlines() if "worse" in line]
    assert len(worse) == 1 and worse[0].split()[:2] == ["kernel_mix", "wall_s"]


def test_compare_says_unresolved_when_noise_exceeds_the_bound(quick_runs, tmp_path, capsys):
    base = steady(quick_runs[0])
    noisy = copy.deepcopy(base)
    noisy["workloads"]["jobs_flood"]["measured"]["wall_samples_s"] = [
        0.8, 1.0, 1.3, 1.5, 0.9
    ]
    assert compare.main(
        [write(tmp_path, "a.json", base), write(tmp_path, "b.json", noisy)]
    ) == 0
    assert "unresolved" in capsys.readouterr().out


def test_compare_fails_on_a_new_failed_check(quick_runs, tmp_path):
    base = steady(quick_runs[0])
    broken = copy.deepcopy(base)
    broken["workloads"]["paper_tasks"]["measured"]["failed"] = 1
    assert compare.main(
        [write(tmp_path, "a.json", base), write(tmp_path, "b.json", broken)]
    ) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and bench/ has nothing to
    measure: non-zero exit, no result line."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
