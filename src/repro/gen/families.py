"""The three generated task families (ROADMAP "scenario diversity").

Each family is a seeded builder returning a *self-contained*
``repro/workflow-spec@1`` document, so one spec runs under both
paradigms and the row multisets must agree:

``stream``
    A streaming/incremental micro-batch variant of the DICE mention
    pipeline: records arrive in timed micro-batches through
    ``micro_batch_source`` and flow through filter -> distinct ->
    enrich -> top-k.  The pipelined engine overlaps downstream work
    with the arrival gaps; the script plan materialises the source
    first and pays arrival and compute *sequentially* — the paradigm
    gap the paper could not measure on Texera (Section VI).
``smallsteps``
    A Snakemake-style scientific workflow: one deep chain of >= 30
    short operators (PAPERS.md, "How do users design scientific
    workflows?").  Per-step overhead dominates — the workflow engine
    pays ``operator_deploy_s`` per operator, the script runtime pays
    per-task dispatch — so the family measures paradigm *control-plane*
    cost, not data-plane cost.
``raster``
    A geospatial raster-tiling pipeline: ``raster_source`` synthesises
    multi-KiB pixel blobs that ride the pipeline until a projection
    drops them, then zonal statistics aggregate per zone.  Large-blob
    traffic stresses ``repro.mem`` spill and ``repro.cache`` capacity
    differently than the row-oriented ML tasks.

Determinism: a family document is a pure function of
``(seed, scale)``; all stages are order-independent (keyed distinct,
keyed sampling, tie-free sorts, min/max aggregation — never
order-sensitive float sums), so both paradigms collect identical row
multisets.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import GenSpecError
from repro.gen.generator import _records
from repro.paradigm import SpecRun, check_paradigm, run_spec
from repro.workflow.spec.model import SPEC_VERSION

__all__ = [
    "FAMILIES",
    "family_catalogue",
    "family_spec",
    "run_family",
]

#: Sink id shared by every family document (single collected table).
SINK_ID = "results"

_STREAM_SCHEMA = {
    "$schema": {
        "id": "string",
        "category": "string",
        "score": "float",
        "count": "int",
    }
}

_TILE_STATS_SCHEMA = {
    "$schema": {
        "tile_id": "string",
        "zone": "string",
        "band": "int",
        "mean": "float",
        "pixels": "string",
    }
}


def stream_spec(seed: int = 0, scale: float = 1.0) -> Dict[str, Any]:
    """Micro-batch DICE variant: timed arrivals through the pipeline."""
    rng = random.Random(seed)
    rows = max(24, int(96 * scale))
    records = _records(rng, 0, rows)
    return {
        "spec": SPEC_VERSION,
        "name": f"stream-{seed}",
        "operators": [
            {
                "id": "mention-feed",
                "type": "micro_batch_source",
                "config": {
                    "records": records,
                    "schema": _STREAM_SCHEMA,
                    "batch_size": 8,
                    "interval_s": 0.02,
                },
            },
            {
                "id": "fresh-mentions",
                "type": "filter",
                "config": {
                    "predicate": {
                        "$predicate": {
                            "op": "greater", "column": "score", "value": 0.15,
                        }
                    },
                    "num_workers": 2,
                },
            },
            {
                "id": "dedupe",
                "type": "distinct",
                "config": {"key": "id", "num_workers": 2},
            },
            {
                "id": "enrich",
                "type": "map",
                "config": {
                    "fn": {"$callable": "repro.gen.operators:bump_count_values"},
                    "output_schema": _STREAM_SCHEMA,
                    "per_tuple_work_s": 0.002,
                    "num_workers": 2,
                    "language": "python",
                },
            },
            {
                "id": "trending",
                "type": "top_k",
                "config": {"key": "score", "k": max(8, rows // 6)},
            },
            {"id": SINK_ID, "type": "sink", "config": {}},
        ],
        "links": [
            {"from": "mention-feed", "to": "fresh-mentions"},
            {"from": "fresh-mentions", "to": "dedupe"},
            {"from": "dedupe", "to": "enrich"},
            {"from": "enrich", "to": "trending"},
            {"from": "trending", "to": SINK_ID},
        ],
    }


#: The rotating step palette of the many-small-steps chain.  Every step
#: is schema-preserving and order-independent.
_SMALLSTEP_KINDS = ("filter", "bump", "distinct", "sort", "sample")


def smallsteps_spec(
    seed: int = 0, steps: int = 32, scale: float = 1.0
) -> Dict[str, Any]:
    """Snakemake-style deep chain of >= 30 short operators."""
    rng = random.Random(seed)
    steps = max(30, int(steps * scale))
    rows = max(12, int(40 * scale))
    operators: List[Dict[str, Any]] = [
        {
            "id": "readings",
            "type": "jsonl_source",
            "config": {
                "records": _records(rng, 0, rows),
                "schema": _STREAM_SCHEMA,
            },
        }
    ]
    links: List[Dict[str, Any]] = []
    languages = ("python", "python", "scala", "java")
    tail = "readings"
    for index in range(steps):
        kind = _SMALLSTEP_KINDS[index % len(_SMALLSTEP_KINDS)]
        op_id = f"step{index:02d}-{kind}"
        if kind == "filter":
            op = {
                "id": op_id,
                "type": "filter",
                "config": {
                    "predicate": {
                        "$predicate": {
                            "op": "greater",
                            "column": "score",
                            # Loose thresholds: each rule trims a little,
                            # like QC steps in a scientific pipeline.
                            "value": round(rng.uniform(0.0, 0.05), 3),
                        }
                    },
                    "language": languages[index % len(languages)],
                },
            }
        elif kind == "bump":
            op = {
                "id": op_id,
                "type": "map",
                "config": {
                    "fn": {"$callable": "repro.gen.operators:bump_count_values"},
                    "output_schema": _STREAM_SCHEMA,
                    "language": languages[index % len(languages)],
                },
            }
        elif kind == "distinct":
            op = {"id": op_id, "type": "distinct", "config": {"key": "id"}}
        elif kind == "sort":
            op = {
                "id": op_id,
                "type": "sort",
                "config": {"key": "score", "reverse": index % 2 == 0},
            }
        else:  # sample — keyed, keep-most
            op = {
                "id": op_id,
                "type": "sample",
                "config": {"one_in": 1 if index % 10 else 2, "key": "id"},
            }
        operators.append(op)
        links.append({"from": tail, "to": op_id})
        tail = op_id
    operators.append({"id": SINK_ID, "type": "sink", "config": {}})
    links.append({"from": tail, "to": SINK_ID})
    return {
        "spec": SPEC_VERSION,
        "name": f"smallsteps-{seed}",
        "operators": operators,
        "links": links,
    }


def raster_spec(seed: int = 0, scale: float = 1.0) -> Dict[str, Any]:
    """Geospatial raster tiling: large blobs, zonal statistics."""
    tiles = max(8, int(16 * scale))
    tile_bytes = max(4096, int(65536 * scale))
    return {
        "spec": SPEC_VERSION,
        "name": f"raster-{seed}",
        "operators": [
            {
                "id": "tiles",
                "type": "raster_source",
                "config": {
                    "seed": seed,
                    "tiles": tiles,
                    "tile_bytes": tile_bytes,
                    "num_workers": 2,
                },
            },
            {
                "id": "tile-stats",
                "type": "map",
                "config": {
                    "fn": {"$callable": "repro.gen.operators:tile_stats_values"},
                    "output_schema": _TILE_STATS_SCHEMA,
                    "extra_seconds_fn": {
                        "$callable": "repro.gen.operators:tile_scan_seconds"
                    },
                    "num_workers": 2,
                },
            },
            {
                "id": "bright-tiles",
                "type": "filter",
                "config": {
                    "predicate": {
                        "$predicate": {
                            "op": "greater", "column": "mean", "value": 60.0,
                        }
                    },
                },
            },
            {
                "id": "drop-pixels",
                "type": "projection",
                "config": {"columns": ["tile_id", "zone", "band", "mean"]},
            },
            {
                "id": "zonal-peaks",
                "type": "group_by",
                "config": {
                    "group_key": "zone",
                    "aggregation": "max",
                    "value_field": "mean",
                    "result_field": "peak_brightness",
                    "num_workers": 2,
                },
            },
            {
                "id": "ranked-zones",
                "type": "sort",
                "config": {"key": "peak_brightness", "reverse": True},
            },
            {"id": SINK_ID, "type": "sink", "config": {}},
        ],
        "links": [
            {"from": "tiles", "to": "tile-stats"},
            {"from": "tile-stats", "to": "bright-tiles"},
            {"from": "bright-tiles", "to": "drop-pixels"},
            {"from": "drop-pixels", "to": "zonal-peaks"},
            {"from": "zonal-peaks", "to": "ranked-zones"},
            {"from": "ranked-zones", "to": SINK_ID},
        ],
    }


#: name -> (builder, one-line description, largest ``scale`` accepted).
#: Rows, chain length and tile bytes grow linearly with ``scale``; 64 is
#: the largest any benchmark runs (``stream@64``), and ``family_spec``
#: refuses more before the builder allocates anything.
FAMILIES: Dict[str, Tuple[Callable[..., Dict[str, Any]], str, float]] = {
    "stream": (
        stream_spec,
        "micro-batch DICE variant: timed arrivals, pipelining gap",
        64.0,
    ),
    "smallsteps": (
        smallsteps_spec,
        "Snakemake-style deep chain of >=30 short operators",
        64.0,
    ),
    "raster": (
        raster_spec,
        "raster tiling: large pixel blobs, zonal statistics",
        64.0,
    ),
}


def _check_scale(name: str, scale: float) -> None:
    """Refuse a scale above family ``name``'s maximum (or NaN)."""
    max_scale = FAMILIES[name][2]
    if not scale <= max_scale:
        raise GenSpecError(
            f"scale: family {name!r} takes at most {max_scale:g}, got {scale:g}"
        )


def family_spec(name: str, seed: int = 0, scale: float = 1.0) -> Dict[str, Any]:
    """The spec document of family ``name`` at ``(seed, scale)``."""
    try:
        builder = FAMILIES[name][0]
    except KeyError:
        raise GenSpecError(
            f"unknown family {name!r} (have: {sorted(FAMILIES)})"
        ) from None
    _check_scale(name, scale)
    return builder(seed=seed, scale=scale)


def family_catalogue() -> str:
    """One line per family, for the CLI and docs."""
    width = max(len(name) for name in FAMILIES)
    return "\n".join(
        f"  {name:<{width}}  {description}"
        for name, (_, description, _) in FAMILIES.items()
    )


def run_family(
    name: str,
    seed: int = 0,
    scale: float = 1.0,
    paradigm: str = "workflow",
    cluster=None,
) -> SpecRun:
    """Run family ``name`` under one paradigm on a fresh (or given)
    cluster; the run's ``rows`` are the sink row multiset."""
    check_paradigm(paradigm, GenSpecError)
    return run_spec(family_spec(name, seed=seed, scale=scale), paradigm, cluster=cluster)
