"""The ``repro gen`` spec grammar: comma-separated flags and pairs.

Mirrors the other subsystem spec surfaces (``--mem``, ``--jobs``, ...):
a compact string expands to a :class:`GenRequest`, malformed specs
raise :class:`repro.errors.GenSpecError`, and the CLI prints the
grammar with every error (exit 2, never a traceback).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import GenSpecError
from repro.gen.families import FAMILIES, _check_scale
from repro.gen.generator import GenConfig
from repro.layer import finite

__all__ = ["GenRequest", "parse_gen_spec", "describe_gen"]


@dataclass(frozen=True)
class GenRequest:
    """One parsed ``repro gen`` invocation."""

    #: First seed; ``count`` consecutive seeds are generated.
    seed: int = 0
    count: int = 1
    #: A family name, or None for the random generator.
    family: Optional[str] = None
    #: Family scale factor (ignored by the random generator).
    scale: float = 1.0
    #: Random-generator knobs (ignored by families).
    config: GenConfig = GenConfig()
    #: Execute each document under both paradigms and diff the rows.
    run: bool = True
    #: Write the document(s) to PATH (count>1 appends ``-SEED``).
    emit: Optional[str] = None


def _positive_int(key: str, raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise GenSpecError(f"{key}: expected an integer, got {raw!r}") from None
    if value < 0:
        raise GenSpecError(f"{key}: must be >= 0, got {value}")
    return value


def _fraction(key: str, raw: str) -> float:
    try:
        return finite(raw)
    except ValueError:
        raise GenSpecError(f"{key}: expected a finite number, got {raw!r}") from None


def parse_gen_spec(text: str) -> GenRequest:
    """Expand a spec string into a :class:`GenRequest`.

    Grammar (all parts optional, comma-separated)::

        seed=N,count=N,family=NAME,scale=F,
        depth=N,sources=N,fanout=F,selectivity=F,rows=N,
        run=on|off,emit=PATH
    """
    fields = {
        "seed": 0,
        "count": 1,
        "family": None,
        "scale": 1.0,
        "run": True,
        "emit": None,
    }
    knobs = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        if "=" not in part:
            raise GenSpecError(
                f"expected key=value, got {part!r} "
                f"(flags like 'on' belong to other subsystems)"
            )
        key, _, raw = part.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key == "seed":
            fields["seed"] = _positive_int(key, raw)
        elif key == "count":
            count = _positive_int(key, raw)
            if count < 1:
                raise GenSpecError(f"count: must be >= 1, got {count}")
            fields["count"] = count
        elif key == "family":
            if raw not in FAMILIES:
                raise GenSpecError(
                    f"unknown family {raw!r} (have: {sorted(FAMILIES)})"
                )
            fields["family"] = raw
        elif key == "scale":
            scale = _fraction(key, raw)
            if scale <= 0:
                raise GenSpecError(f"scale: must be > 0, got {scale}")
            fields["scale"] = scale
        elif key == "run":
            if raw not in ("on", "off"):
                raise GenSpecError(f"run: expected on or off, got {raw!r}")
            fields["run"] = raw == "on"
        elif key == "emit":
            if not raw:
                raise GenSpecError("emit: expected a file path")
            fields["emit"] = raw
        elif key == "depth":
            knobs["depth"] = _positive_int(key, raw)
        elif key == "sources":
            knobs["max_sources"] = _positive_int(key, raw)
        elif key == "fanout":
            knobs["fan_out"] = _fraction(key, raw)
        elif key == "selectivity":
            knobs["selectivity"] = _fraction(key, raw)
        elif key == "rows":
            knobs["rows"] = _positive_int(key, raw)
        else:
            raise GenSpecError(
                f"unknown key {key!r} (valid: seed, count, family, scale, "
                f"depth, sources, fanout, selectivity, rows, run, emit)"
            )
    if fields["family"] is not None:
        _check_scale(fields["family"], fields["scale"])
    config = GenConfig(seed=fields["seed"], **knobs)
    return GenRequest(
        seed=fields["seed"],
        count=fields["count"],
        family=fields["family"],
        scale=fields["scale"],
        config=config,
        run=fields["run"],
        emit=fields["emit"],
    )


def describe_gen(request: GenRequest) -> str:
    """Human-readable expansion of a parsed request."""
    source = request.family or "random"
    lines = [
        "workload generator",
        f"  source       {source}",
        f"  seeds        {request.seed}"
        + (f"..{request.seed + request.count - 1}" if request.count > 1 else ""),
        f"  run          {'both paradigms, diff rows' if request.run else 'validate + compile only'}",
    ]
    if request.family is None:
        config = request.config
        lines.insert(
            2,
            f"  knobs        depth={config.depth} sources={config.max_sources} "
            f"fan_out={config.fan_out} selectivity={config.selectivity} "
            f"rows={config.rows}",
        )
    else:
        lines.insert(2, f"  scale        {request.scale}")
    if request.emit:
        lines.append(f"  emit         {request.emit}")
    return "\n".join(lines)
