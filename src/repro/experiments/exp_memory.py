"""Memory-pressure experiment: spilling vs dying on shrunken RAM.

The paper's testbed gives every machine ample RAM, so neither paradigm
ever hits a memory wall.  This extension asks what happens when the
machines are smaller than the working set: the seed behaviour (a hard
:class:`repro.errors.InsufficientResources` the moment an allocation
does not fit) versus the :mod:`repro.mem` policy (LRU spill-to-disk
plus admission backpressure), which trades virtual disk time for
completion.

Each of the four tasks runs three ways under the script paradigm:

1. **clean** — default config, ample RAM; doubles as the probe that
   records the node-level RAM high-water mark and the largest single
   allocation;
2. **dormant + shrunken RAM** — RAM clamped midway between the largest
   single allocation and the observed peak, spilling disabled: the run
   must die (this is the seed behaviour on a smaller machine);
3. **policy + shrunken RAM** — same clamp with spilling enabled: the
   run must complete, with recorded spills, and produce rows identical
   to the clean run.

Each run names its own memory policy, so an installed one (``--mem``)
changes nothing here.  The report shows clean time, pressured time and
the spill overhead — the price of finishing at all.  All times are
virtual and bit-reproducible.
"""

from __future__ import annotations

from functools import partial

from repro.cluster import build_cluster
from repro.config import MemoryConfig
from repro.errors import ExperimentError, InsufficientResources
from repro.metrics import ExperimentReport
from repro.sim import Environment
from repro.tasks import PARADIGM_SCRIPT, TASKS

__all__ = ["run_memory", "shrunken_ram_bytes"]


def shrunken_ram_bytes(cluster) -> int:
    """A per-node RAM size that pressures a probed run without starving it.

    Midway between the largest single allocation any node made (the
    floor below which even spilling cannot help — one object must fit
    in RAM to be used) and the highest concurrent usage any node
    reached (above which nothing interesting happens).
    """
    peak = max(node.ram_peak for node in cluster._nodes.values())
    largest = max(node.largest_alloc for node in cluster._nodes.values())
    return (peak + largest) // 2


def run_memory(
    num_docs: int = 120,
    num_paragraphs: int = 4,
    num_candidates: int = 6800,
    universe_size: int = 68000,
    num_tweets: int = 120,
) -> ExperimentReport:
    """Memory-pressure cost on all four tasks (script paradigm).

    For every task the dormant run on shrunken RAM must die with
    :class:`InsufficientResources` and the policy run must complete
    with at least one spill and clean-identical output — both are
    asserted, not just reported.
    """
    report = ExperimentReport(
        "memory",
        "completing on shrunken RAM: LRU spill + backpressure vs the "
        "seed's hard failure (script paradigm, 4 CPUs)",
        x_label="task",
    )
    data = {
        "dice": TASKS["dice"].dataset(num_docs),
        "gotta": TASKS["gotta"].dataset(num_paragraphs),
        "kge": TASKS["kge"].dataset(num_candidates, universe_size),
        "wef": TASKS["wef"].dataset(num_tweets),
    }
    for task, dataset in data.items():
        run_on = partial(TASKS[task].run, PARADIGM_SCRIPT, dataset, workers=4)
        # The clean run doubles as the RAM probe.
        clean_cluster = build_cluster(Environment(), memory=MemoryConfig())
        clean = run_on(cluster=clean_cluster)
        ram = shrunken_ram_bytes(clean_cluster)

        try:
            run_on(cluster=build_cluster(Environment(), memory=MemoryConfig(node_ram_bytes=ram)))
        except InsufficientResources:
            pass
        else:
            raise ExperimentError(
                f"{task}: dormant run on {ram} bytes/node should have died "
                "with InsufficientResources but completed"
            )

        pressured_cluster = build_cluster(
            Environment(), memory=MemoryConfig(enabled=True, node_ram_bytes=ram)
        )
        pressured = run_on(cluster=pressured_cluster)
        memory = pressured_cluster.memory
        if memory.spill_count == 0:
            raise ExperimentError(
                f"{task}: pressured run on {ram} bytes/node recorded no "
                "spills — the clamp did not bite"
            )
        if pressured.output.multiset() != clean.output.multiset():
            raise ExperimentError(
                f"{task}: pressured run produced different output than the "
                "clean run — spilling corrupted the result"
            )
        report.add("clean", task, clean.elapsed_s)
        report.add("pressured", task, pressured.elapsed_s)
        report.add("overhead", task, pressured.elapsed_s - clean.elapsed_s)
        report.notes.append(
            f"{task}: ram={ram} bytes/node; dormant run died "
            f"(InsufficientResources), policy run spilled "
            f"{memory.spill_count}x ({memory.spill_bytes} bytes, "
            f"{memory.spill_seconds:.3f}s), restored {memory.restore_count}x, "
            f"blocked {memory.blocked_count}x; output identical to clean run"
        )
    return report
