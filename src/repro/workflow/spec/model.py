"""The versioned JSON grammar for workflow specs.

A workflow spec is *data*: the paper's GUI paradigm treats a pipeline
as a typed operator DAG that is edited, validated and stored before it
is ever executed (Section III-A), in contrast to scripts, which are
code.  This module defines the document shape and the structural checks
that run without instantiating a single operator — the analogue of what
the Texera editor enforces while the user is still dragging boxes.

Grammar (version ``repro/workflow-spec@1``)::

    {
      "spec": "repro/workflow-spec@1",
      "name": "<workflow name>",
      "operators": [
        {"id": "<unique id>", "type": "<registry type>", "config": {...}},
        ...
      ],
      "links": [
        {"from": "<producer id>", "to": "<consumer id>", "out": 0, "in": 0},
        ...
      ]
    }

``config`` values may embed resolution forms handled by the loader:
``{"$param": name}`` (runtime binding), ``{"$callable": "mod:qual"}``
(imported function), ``{"$schema": {field: type, ...}}`` (schema
literal) and ``{"$predicate": {...}}`` (declarative predicate tree).

Array order is semantic: operators are added and links connected in
document order, which reproduces the exact physical plan (and therefore
the bit-identical virtual timings) of the hand-assembled builders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

from repro.errors import WorkflowSpecError
from repro.workflow.dag import topological_ids

__all__ = [
    "SPEC_VERSION",
    "LinkSpec",
    "OperatorSpec",
    "WorkflowSpec",
    "dump_spec_doc",
]

#: The one grammar version this build reads and writes.
SPEC_VERSION = "repro/workflow-spec@1"

_OPERATOR_KEYS = {"id", "type", "config"}
_LINK_KEYS = {"from", "to", "out", "in"}


def dump_spec_doc(doc: Any) -> str:
    """Serialize a spec document to JSON text, *strictly*.

    ``json.dumps`` would otherwise emit the non-standard ``NaN`` /
    ``Infinity`` tokens for non-finite float config values — invalid
    JSON that other parsers (and this module's own :func:`read_spec`)
    reject.  Serialization errors surface as scoped
    :class:`WorkflowSpecError`\\ s so the CLI exits 2 with the grammar
    instead of a traceback.  ``ensure_ascii=False`` keeps non-ASCII
    operator ids byte-for-byte intact (the round-trip contract).
    """
    try:
        return json.dumps(doc, indent=2, allow_nan=False, ensure_ascii=False)
    except ValueError as exc:
        raise WorkflowSpecError(
            "workflow spec contains non-finite float values (NaN/Infinity), "
            f"which have no JSON representation: {exc}"
        ) from exc
    except TypeError as exc:
        raise WorkflowSpecError(
            f"workflow spec contains values with no JSON representation: {exc}"
        ) from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WorkflowSpecError(message)


@dataclass(frozen=True)
class OperatorSpec:
    """One operator declaration: id, registry type, raw configuration."""

    operator_id: str
    type: str
    config: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {"id": self.operator_id, "type": self.type, "config": self.config}

    @classmethod
    def from_json(cls, doc: Any, position: int) -> "OperatorSpec":
        where = f"operators[{position}]"
        _require(isinstance(doc, dict), f"{where}: expected an object, got {doc!r}")
        unknown = sorted(set(doc) - _OPERATOR_KEYS)
        _require(
            not unknown,
            f"{where}: unknown keys {unknown} (allowed: id, type, config)",
        )
        operator_id = doc.get("id")
        _require(
            isinstance(operator_id, str) and bool(operator_id),
            f"{where}: 'id' must be a non-empty string, got {operator_id!r}",
        )
        op_type = doc.get("type")
        _require(
            isinstance(op_type, str) and bool(op_type),
            f"{where} ({operator_id!r}): 'type' must be a non-empty string, "
            f"got {op_type!r}",
        )
        config = doc.get("config", {})
        _require(
            isinstance(config, dict),
            f"{where} ({operator_id!r}): 'config' must be an object, "
            f"got {config!r}",
        )
        return cls(operator_id, op_type, config)


@dataclass(frozen=True)
class LinkSpec:
    """One directed edge: producer output port -> consumer input port."""

    producer_id: str
    consumer_id: str
    output_port: int = 0
    input_port: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "from": self.producer_id,
            "to": self.consumer_id,
            "out": self.output_port,
            "in": self.input_port,
        }

    @classmethod
    def from_json(cls, doc: Any, position: int) -> "LinkSpec":
        where = f"links[{position}]"
        _require(isinstance(doc, dict), f"{where}: expected an object, got {doc!r}")
        unknown = sorted(set(doc) - _LINK_KEYS)
        _require(
            not unknown,
            f"{where}: unknown keys {unknown} (allowed: from, to, out, in)",
        )
        for key in ("from", "to"):
            value = doc.get(key)
            _require(
                isinstance(value, str) and bool(value),
                f"{where}: {key!r} must be a non-empty string, got {value!r}",
            )
        for key in ("out", "in"):
            value = doc.get(key, 0)
            _require(
                isinstance(value, int) and not isinstance(value, bool)
                and value >= 0,
                f"{where} ({doc['from']} -> {doc['to']}): {key!r} must be a "
                f"non-negative integer port, got {value!r}",
            )
        return cls(doc["from"], doc["to"], doc.get("out", 0), doc.get("in", 0))


@dataclass(frozen=True)
class WorkflowSpec:
    """A full workflow document: name + ordered operators + ordered links."""

    name: str
    operators: Tuple[OperatorSpec, ...]
    links: Tuple[LinkSpec, ...]
    version: str = SPEC_VERSION

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """The canonical JSON document (round-trips via :meth:`from_json`)."""
        return {
            "spec": self.version,
            "name": self.name,
            "operators": [op.to_json() for op in self.operators],
            "links": [link.to_json() for link in self.links],
        }

    @classmethod
    def from_json(cls, doc: Any) -> "WorkflowSpec":
        """Parse and structurally validate a spec document."""
        _require(
            isinstance(doc, dict),
            f"workflow spec must be a JSON object, got {type(doc).__name__}",
        )
        version = doc.get("spec")
        _require(
            version == SPEC_VERSION,
            f"unsupported spec version {version!r} (this build reads "
            f"{SPEC_VERSION!r})",
        )
        unknown = sorted(set(doc) - {"spec", "name", "operators", "links"})
        _require(
            not unknown,
            f"unknown top-level keys {unknown} "
            f"(allowed: spec, name, operators, links)",
        )
        name = doc.get("name")
        _require(
            isinstance(name, str) and bool(name),
            f"'name' must be a non-empty string, got {name!r}",
        )
        raw_operators = doc.get("operators")
        _require(
            isinstance(raw_operators, list) and bool(raw_operators),
            "'operators' must be a non-empty array",
        )
        raw_links = doc.get("links", [])
        _require(isinstance(raw_links, list), "'links' must be an array")
        operators = tuple(
            OperatorSpec.from_json(op, i) for i, op in enumerate(raw_operators)
        )
        links = tuple(
            LinkSpec.from_json(link, i) for i, link in enumerate(raw_links)
        )
        spec = cls(name, operators, links, version)
        spec.validate_structure()
        return spec

    # -- structural validation -------------------------------------------------

    def validate_structure(self) -> None:
        """Spec-level DAG checks that need no operator instances.

        Port-range and schema checks require instantiation and run in
        the loader via ``Workflow``'s own validation; everything below
        is catchable while the document is still pure data.
        """
        ids: Dict[str, int] = {}
        for position, op in enumerate(self.operators):
            _require(
                op.operator_id not in ids,
                f"duplicate operator id {op.operator_id!r} "
                f"(operators[{ids.get(op.operator_id)}] and "
                f"operators[{position}])",
            )
            ids[op.operator_id] = position
        taken: Dict[Tuple[str, int], LinkSpec] = {}
        for position, link in enumerate(self.links):
            for endpoint, key in ((link.producer_id, "from"), (link.consumer_id, "to")):
                _require(
                    endpoint in ids,
                    f"links[{position}]: {key!r} references unknown operator "
                    f"{endpoint!r} (declared: {sorted(ids)})",
                )
            slot = (link.consumer_id, link.input_port)
            _require(
                slot not in taken,
                f"links[{position}]: duplicate link into input port "
                f"{link.input_port} of operator {link.consumer_id!r} "
                f"(already fed by {taken.get(slot)!r})",
            )
            taken[slot] = link
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        _, cycle = topological_ids(
            [op.operator_id for op in self.operators],
            [(link.producer_id, link.consumer_id) for link in self.links],
        )
        if cycle:
            raise WorkflowSpecError(
                f"workflow spec contains a cycle involving operators {cycle}"
            )

    # -- queries ---------------------------------------------------------------

    def params(self) -> List[str]:
        """Sorted ``$param`` names referenced anywhere in the configs."""
        names = set()
        for op in self.operators:
            for name in _walk_params(op.config):
                names.add(name)
        return sorted(names)


def _walk_params(value: Any) -> Iterator[str]:
    if isinstance(value, dict):
        if set(value) == {"$param"} and isinstance(value["$param"], str):
            yield value["$param"]
            return
        for item in value.values():
            yield from _walk_params(item)
    elif isinstance(value, list):
        for item in value:
            yield from _walk_params(item)
