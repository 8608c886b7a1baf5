"""Compare two benchmark result documents, workload by workload.

    python bench/compare.py A.json B.json

``A`` is the base (parent commit), ``B`` the candidate.  For every
workload and every end-to-end metric it prints both values, the signed
delta, the ratio ``B/A`` and a verdict:

* ``better`` / ``worse`` — the medians differ by more than the metric's
  bound (``BENCHMARK.json``; recorded in the result document), and for
  ``worse`` the candidate also lies outside the base's inter-quartile
  spread;
* ``unresolved`` — the run-to-run spread is wider than the bound and
  the two sets of samples overlap, so neither can be said;
* ``same`` — anything else;
* ``changed`` — an exact (virtual) value differs; any change is flagged.

One row per workload, never pooled.  Exits 1 on any ``worse`` and on
any rise in ``failed / attempted``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from run import quartiles


def samples_of(measured: Dict[str, Any], metric: str) -> List[float]:
    """Raw samples behind a metric: per-repeat walls, else the one value."""
    if metric == "wall_s":
        return list(measured["wall_samples_s"])
    return [measured["metrics"][metric]["value"]]


def verdict(base: List[float], cand: List[float], bound: float) -> str:
    """Lower is better for every bounded metric."""
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(cand)
    spread = max((b_q3 - b_q1) / b_med, (c_q3 - c_q1) / c_med)
    ratio = c_med / b_med
    if spread > bound:
        if max(cand) < min(base):
            return "better"
        if min(cand) > max(base) and ratio - 1 > bound:
            return "worse"
        return "unresolved"
    if ratio - 1 > bound and c_med > b_q3:
        return "worse"
    if 1 - ratio > bound:
        return "better"
    return "same"


def compare(base: Dict[str, Any], cand: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report lines and whether anything regressed."""
    bounds: Dict[str, float] = base["bounds"]
    lines = [
        f"{'workload':<16} {'metric':<12} {'base':>12} {'candidate':>12} "
        f"{'delta':>12} {'ratio':>7}  verdict"
    ]
    regressed = False

    def row(name, metric, a, b, word):
        ratio = f"{b / a:7.3f}" if a else "    n/a"
        lines.append(
            f"{name:<16} {metric:<12} {a:>12.6g} {b:>12.6g} {b - a:>+12.6g} "
            f"{ratio}  {word}"
        )

    for name, passes in base["workloads"].items():
        a: Optional[Dict[str, Any]] = passes.get("measured")
        b = cand["workloads"].get(name, {}).get("measured")
        if a is None or b is None:
            lines.append(f"{name:<16} missing from one document")
            regressed = regressed or b is None
            continue
        for metric, bound in bounds.items():
            sa, sb = samples_of(a, metric), samples_of(b, metric)
            word = verdict(sa, sb, bound)
            regressed = regressed or word == "worse"
            row(name, metric, quartiles(sa)[1], quartiles(sb)[1], word)
        va, vb = a["exact"]["virtual_s"], b["exact"]["virtual_s"]
        row(name, "virtual_s", va, vb, "same" if va == vb else "changed")
        dropped = b["attempted"] < a["attempted"]
        row(name, "attempted", a["attempted"], b["attempted"],
            "worse" if dropped else "same")
        # Cross-multiplied: failed/attempted rose.
        failing = b["failed"] * a["attempted"] > a["failed"] * b["attempted"]
        row(name, "failed", a["failed"], b["failed"], "worse" if failing else "same")
        regressed = regressed or dropped or failing
        changed = sorted(
            cell for cell in set(a["exact"]) | set(b["exact"])
            if a["exact"].get(cell) != b["exact"].get(cell) and cell != "virtual_s"
        )
        if changed:
            lines.append(f"{name:<16} exact values changed: {', '.join(changed)}")
    return lines, regressed


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python bench/compare.py A.json B.json", file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    base, cand = documents
    if (base["seed"], base["scale"]) != (cand["seed"], cand["scale"]):
        print(
            f"compare: seed/scale differ ({base['seed']}/{base['scale']} vs "
            f"{cand['seed']}/{cand['scale']}); exact values will not match",
            file=sys.stderr,
        )
    lines, regressed = compare(base, cand)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
