"""Exactness pin for the script runtime's one body path.

One fixed script drives every way ``repro.rayx`` runs a body — task
attempt, retry, cache-hit replay, lineage reconstruction (charged and
replayed) and actor call — under a tracer, a fault schedule and a
result cache, and the digest of everything observable (spans, counters,
cache statistics, the virtual clock, the placement accounts) is a
literal recorded at the commit *before* the paths were folded into
``TaskContext``.  A refactor of that path must reproduce it to the bit;
``docs/architecture.md`` ("How a body runs") names the divergences the
digest freezes.
"""

import hashlib
import json

from tests.support.body_path import observe

DIGEST = "23e48d0003c5abc90dfa6623c0d32292e8b659db43af5c6429c971757db7d37f"


def test_the_one_body_path_reproduces_the_recorded_run():
    seen = observe()
    # The script must keep reaching every path, or the digest pins nothing.
    values, totals = seen["runs"][0][0]
    assert values == [[64] * 8, [65] * 8, [66] * 8, [67] * 4]
    assert totals == [65 * 8, 65 * 8]
    assert [result for result, _ in seen["runs"]] == [seen["runs"][0][0]] * 3
    counters = seen["counters"]
    assert counters["faults.reconstructions"] == 6  # 2 charged, 4 replayed
    assert counters["faults.retries"] == 5  # 2 + 2 charged, 1 post-lookup
    assert sum(v for k, v in counters.items() if k.startswith("rayx.actor_calls")) == 6
    assert seen["cache"]["hits"] > 0 and seen["cache"]["misses"] > 0
    assert all(outstanding == 0 for run in seen["accounts"] for _, outstanding, _ in run)
    blob = json.dumps(seen, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == DIGEST
