"""Seeded random workflow-spec generator.

Produces *valid-by-construction* ``repro/workflow-spec@1`` documents:
every spec is self-contained (declarative configs only — no ``$param``
bindings), so it can be loaded, validated, and executed under either
paradigm without any runtime context.

The generator is parameterized by a :class:`GenConfig`:

* ``depth`` bounds the number of intermediate stages;
* ``max_sources`` bounds the fan-in (parallel source branches);
* ``fan_out`` is the probability a step merges two branches instead of
  extending one (the DAG's bushiness);
* ``selectivity`` steers how much data filters let through, from
  aggressive pruning (0.0) to pass-almost-everything (1.0);
* ``rows`` bounds the records per source (data size);
* ``languages`` is the language mix drawn for eligible operators.

Determinism guarantees baked into the generation:

* The same :class:`GenConfig` always yields the same document, byte
  for byte — the seed-reproducibility contract (``docs/workloads.md``).
* Record ``id`` values are unique per source and per spec, so
  ``distinct`` keyed on ``id`` selects the same surviving rows
  regardless of arrival order.
* ``score`` values come from ``random.Random.random()`` — ties are
  vanishingly unlikely, so ``sort``/``top_k`` boundaries don't depend
  on arrival order either.
* Order-*sensitive* operators (``limit``, counter-based ``sample``)
  are deliberately absent from the palette: their output rows depend
  on tuple arrival order, which legitimately differs between the
  pipelined engine and the script plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.errors import GenSpecError

__all__ = ["CATEGORIES", "GenConfig", "generate_spec", "random_spec"]

CATEGORIES = ["sign", "symptom", "disorder", "medication"]

#: Unary schema-preserving stages the generator draws from.
_STAGES = ("filter", "distinct", "sort", "top_k", "sample")


@dataclass(frozen=True)
class GenConfig:
    """Knobs of one generated workload (see module docstring)."""

    seed: int = 0
    depth: int = 4
    max_sources: int = 3
    fan_out: float = 0.35
    selectivity: float = 0.5
    rows: int = 12
    languages: Tuple[str, ...] = ("python", "python", "scala", "java")

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise GenSpecError(f"depth must be >= 1, got {self.depth}")
        if self.max_sources < 1:
            raise GenSpecError(
                f"max_sources must be >= 1, got {self.max_sources}"
            )
        if not 0.0 <= self.fan_out <= 1.0:
            raise GenSpecError(
                f"fan_out must be in [0, 1], got {self.fan_out}"
            )
        if not 0.0 <= self.selectivity <= 1.0:
            raise GenSpecError(
                f"selectivity must be in [0, 1], got {self.selectivity}"
            )
        if self.rows < 3:
            raise GenSpecError(f"rows must be >= 3, got {self.rows}")
        if not self.languages:
            raise GenSpecError("languages must name at least one language")


def _records(rng: random.Random, start_id: int, count: int) -> List[Dict[str, Any]]:
    return [
        {
            "id": f"r{start_id + i:04d}",
            "category": rng.choice(CATEGORIES),
            "score": round(rng.random(), 9),
            "count": rng.randint(0, 50),
        }
        for i in range(count)
    ]


def _language(rng: random.Random, config: GenConfig) -> str:
    return rng.choice(config.languages)


def _predicate(rng: random.Random, config: GenConfig) -> Dict[str, Any]:
    # ``selectivity`` slides every threshold toward keep-everything at
    # 1.0 and drop-nearly-everything at 0.0 (scores are uniform [0,1),
    # counts uniform [0,50]).
    keep = config.selectivity
    choice = rng.randrange(4)
    if choice == 0:
        bound = (1.0 - keep) * 1.2
        return {
            "op": "greater",
            "column": "score",
            "value": round(rng.uniform(0.0, min(bound, 1.0)), 3),
        }
    if choice == 1:
        low = max(1, int(10 * keep))
        high = max(low, int(50 * max(keep, 0.2)))
        return {"op": "less", "column": "count", "value": rng.randint(low, high)}
    if choice == 2:
        width = max(1, min(3, round(1 + keep * 2)))
        return {
            "op": "in",
            "column": "category",
            "values": rng.sample(CATEGORIES, rng.randint(1, width)),
        }
    return {
        "op": "not",
        "of": {"op": "equals", "column": "category", "value": rng.choice(CATEGORIES)},
    }


def _stage(rng: random.Random, op_id: str, config: GenConfig) -> Dict[str, Any]:
    kind = rng.choice(_STAGES)
    if kind == "filter":
        stage_config: Dict[str, Any] = {
            "predicate": {"$predicate": _predicate(rng, config)},
            "language": _language(rng, config),
            "num_workers": rng.randint(1, 2),
        }
    elif kind == "distinct":
        # Keyed on the unique id field: deterministic under any order.
        stage_config = {"key": "id", "num_workers": rng.randint(1, 2)}
    elif kind == "sort":
        stage_config = {"key": "score", "reverse": rng.random() < 0.5}
    elif kind == "top_k":
        k = max(1, round(12 * max(config.selectivity, 1 / 12)))
        stage_config = {"key": "score", "k": rng.randint(1, k)}
    else:  # sample, keyed: stable hash of id, order-independent
        one_in = max(1, round(3 * (1.0 - config.selectivity)) + 1)
        stage_config = {"one_in": rng.randint(1, one_in), "key": "id"}
    return {"id": op_id, "type": kind, "config": stage_config}


def generate_spec(config: GenConfig) -> Dict[str, Any]:
    """One random self-contained spec document for ``config``."""
    rng = random.Random(config.seed)
    operators: List[Dict[str, Any]] = []
    links: List[Dict[str, Any]] = []
    counter = 0

    def next_id(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}{counter}"

    num_sources = rng.randint(1, config.max_sources)
    frontier: List[str] = []
    next_record = 0
    for _ in range(num_sources):
        count = rng.randint(3, config.rows)
        op_id = next_id("src")
        operators.append(
            {
                "id": op_id,
                "type": "jsonl_source",
                "config": {
                    "records": _records(rng, next_record, count),
                    "schema": {
                        "$schema": {
                            "id": "string",
                            "category": "string",
                            "score": "float",
                            "count": "int",
                        }
                    },
                    "num_workers": rng.randint(1, 2),
                },
            }
        )
        next_record += count
        frontier.append(op_id)

    for _ in range(rng.randint(1, config.depth)):
        if len(frontier) >= 2 and rng.random() < config.fan_out:
            left = frontier.pop(rng.randrange(len(frontier)))
            right = frontier.pop(rng.randrange(len(frontier)))
            op_id = next_id("merge")
            operators.append(
                {"id": op_id, "type": "union", "config": {"num_inputs": 2}}
            )
            links.append({"from": left, "to": op_id, "in": 0})
            links.append({"from": right, "to": op_id, "in": 1})
            frontier.append(op_id)
        else:
            index = rng.randrange(len(frontier))
            upstream = frontier[index]
            op_id = next_id("op")
            operators.append(_stage(rng, op_id, config))
            links.append({"from": upstream, "to": op_id})
            frontier[index] = op_id

    while len(frontier) >= 2:
        left = frontier.pop()
        right = frontier.pop()
        op_id = next_id("merge")
        operators.append({"id": op_id, "type": "union", "config": {"num_inputs": 2}})
        links.append({"from": left, "to": op_id, "in": 0})
        links.append({"from": right, "to": op_id, "in": 1})
        frontier.append(op_id)

    (tail,) = frontier
    if rng.random() < 0.5:
        names = ["id", "category", "score", "count"]
        keep = sorted(
            rng.sample(names, rng.randint(1, len(names))), key=names.index
        )
        op_id = next_id("project")
        operators.append(
            {"id": op_id, "type": "projection", "config": {"columns": keep}}
        )
        links.append({"from": tail, "to": op_id})
        tail = op_id
    sink_id = next_id("view")
    operators.append({"id": sink_id, "type": "sink", "config": {}})
    links.append({"from": tail, "to": sink_id})

    return {
        "spec": "repro/workflow-spec@1",
        "name": f"generated-{config.seed}",
        "operators": operators,
        "links": links,
    }


def random_spec(seed: int, **overrides: Any) -> Dict[str, Any]:
    """One random spec document for ``seed`` (keyword knobs override
    the :class:`GenConfig` defaults)."""
    return generate_spec(GenConfig(seed=seed, **overrides))
