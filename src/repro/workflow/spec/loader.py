"""Compile a :class:`WorkflowSpec` into an executable :class:`Workflow`.

Resolution forms inside operator ``config`` values:

``{"$param": "name"}``
    Looked up in the ``bindings`` mapping supplied at load time — the
    escape hatch for runtime data (tables, datasets, measured costs)
    that has no JSON representation.
``{"$callable": "module:qualname"}``
    Imported by dotted path: the UDF escape hatch.  Mirrors how GUI
    systems reference user-defined functions from operator property
    panels.
``{"$schema": {"field": "type", ...}}``
    A :class:`repro.relational.Schema` literal; type strings are the
    :class:`FieldType` values (``int``/``float``/``string``/``bool``/
    ``any``).
``{"$predicate": {...}}``
    A declarative predicate tree built from the
    ``repro.relational.expressions`` combinators, e.g.
    ``{"op": "greater", "column": "score", "value": 0.5}`` or
    ``{"op": "all", "of": [...]}``.

After resolution the workflow is assembled in document order (operator
array order == insertion order, link array order == connection order),
so a spec-built plan is *physically identical* to the hand-built one —
the property the timing-pin tests rely on.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Union

from repro.errors import InvalidWorkflow, WorkflowSpecError
from repro.relational import (
    Field,
    FieldType,
    Predicate,
    Schema,
    all_of,
    any_of,
    column_equals,
    column_greater,
    column_in,
    column_is_not_null,
    column_less,
    column_not_equals,
    column_not_in,
    negate,
    udf_predicate,
)
from repro.workflow.dag import Workflow
from repro.workflow.language import OperatorLanguage
from repro.workflow.operator import LogicalOperator
from repro.workflow.spec.model import OperatorSpec, WorkflowSpec
from repro.workflow.spec.registry import operator_factory

__all__ = [
    "build_workflow",
    "load_workflow_json",
    "read_spec",
    "resolve_value",
]

Bindings = Mapping[str, Any]


def _reject_constant(token: str) -> Any:
    # Python's json module *accepts* the non-standard NaN/Infinity
    # tokens by default, which would let a broken document round-trip
    # silently; the spec grammar is strict JSON.
    raise WorkflowSpecError(
        f"non-standard JSON token {token!r}: non-finite floats have no "
        f"JSON representation in a workflow spec"
    )


def _parse_spec_text(text: str, where: str) -> Any:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise WorkflowSpecError(
            f"workflow spec {where}is not valid JSON: {exc}"
        ) from exc


def read_spec(source: Union[str, Path]) -> WorkflowSpec:
    """Read and parse a spec from a JSON file path."""
    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise WorkflowSpecError(f"cannot read workflow spec {path}: {exc}") from exc
    return WorkflowSpec.from_json(_parse_spec_text(text, f"{path} "))


def load_workflow_json(
    doc: Union[str, Dict[str, Any]], bindings: Optional[Bindings] = None
) -> Workflow:
    """Build a workflow from a JSON document (dict or text)."""
    if isinstance(doc, str):
        doc = _parse_spec_text(doc, "")
    return build_workflow(WorkflowSpec.from_json(doc), bindings)


def build_workflow(
    spec: WorkflowSpec, bindings: Optional[Bindings] = None
) -> Workflow:
    """Instantiate operators and links in document order.

    Raises :class:`WorkflowSpecError` on resolution/construction
    problems and lets :class:`InvalidWorkflow` (ports, duplicate ids,
    cycles, schemas) surface with the operator-level diagnostics the
    DAG layer already produces.
    """
    bindings = bindings or {}
    workflow = Workflow(spec.name)
    for op_spec in spec.operators:
        workflow.add_operator(_instantiate(op_spec, bindings))
    for link in spec.links:
        workflow.link(
            workflow.operators[link.producer_id],
            workflow.operators[link.consumer_id],
            output_port=link.output_port,
            input_port=link.input_port,
        )
    return workflow


def _instantiate(op_spec: OperatorSpec, bindings: Bindings) -> LogicalOperator:
    factory = operator_factory(op_spec.type)
    where = f"operator {op_spec.operator_id!r} ({op_spec.type})"
    config = {
        key: resolve_value(value, bindings, f"{where}.{key}")
        for key, value in op_spec.config.items()
    }
    batch_size = config.pop("output_batch_size", None)
    language = config.get("language")
    if isinstance(language, str):
        try:
            config["language"] = OperatorLanguage(language)
        except ValueError:
            valid = sorted(lang.value for lang in OperatorLanguage)
            raise WorkflowSpecError(
                f"{where}: unknown language {language!r} (valid: {valid})"
            ) from None
    try:
        operator = factory(op_spec.operator_id, **config)
    except InvalidWorkflow:
        raise  # operator constructors already produce scoped messages
    except TypeError as exc:
        raise WorkflowSpecError(f"{where}: bad config: {exc}") from exc
    if batch_size is not None:
        operator.with_output_batch_size(batch_size)
    return operator


# -- value resolution ----------------------------------------------------------


def resolve_value(value: Any, bindings: Bindings, context: str) -> Any:
    """Recursively resolve ``$param``/``$callable``/``$schema``/``$predicate``."""
    if isinstance(value, dict):
        if "$param" in value:
            return _resolve_param(value, bindings, context)
        if "$callable" in value:
            return _resolve_callable(value, context)
        if "$schema" in value:
            return _resolve_schema(value, context)
        if "$predicate" in value:
            return _resolve_predicate_form(value, context)
        return {
            key: resolve_value(item, bindings, f"{context}.{key}")
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [
            resolve_value(item, bindings, f"{context}[{i}]")
            for i, item in enumerate(value)
        ]
    return value


def _single_key(value: Dict[str, Any], key: str, context: str) -> Any:
    if set(value) != {key}:
        raise WorkflowSpecError(
            f"{context}: {{'{key}': ...}} must be the only key, "
            f"got keys {sorted(value)}"
        )
    return value[key]


def _resolve_param(value: Dict[str, Any], bindings: Bindings, context: str) -> Any:
    name = _single_key(value, "$param", context)
    if not isinstance(name, str):
        raise WorkflowSpecError(
            f"{context}: $param name must be a string, got {name!r}"
        )
    if name not in bindings:
        raise WorkflowSpecError(
            f"{context}: unbound $param {name!r} "
            f"(bound: {sorted(bindings)})"
        )
    return bindings[name]


def _resolve_callable(value: Dict[str, Any], context: str) -> Callable[..., Any]:
    ref = _single_key(value, "$callable", context)
    return import_callable(ref, context)


def import_callable(ref: Any, context: str) -> Callable[..., Any]:
    """Import ``module:qualname`` and require the result be callable."""
    if not isinstance(ref, str) or ":" not in ref:
        raise WorkflowSpecError(
            f"{context}: $callable must be a 'module:qualname' string, "
            f"got {ref!r}"
        )
    module_name, _, qualname = ref.partition(":")
    try:
        target: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise WorkflowSpecError(
            f"{context}: cannot import module {module_name!r}: {exc}"
        ) from exc
    for part in qualname.split("."):
        try:
            target = getattr(target, part)
        except AttributeError:
            raise WorkflowSpecError(
                f"{context}: module {module_name!r} has no attribute "
                f"{qualname!r}"
            ) from None
    if not callable(target):
        raise WorkflowSpecError(f"{context}: {ref!r} is not callable")
    return target


def _resolve_schema(value: Dict[str, Any], context: str) -> Schema:
    doc = _single_key(value, "$schema", context)
    if not isinstance(doc, dict) or not doc:
        raise WorkflowSpecError(
            f"{context}: $schema must be a non-empty object of "
            f"field -> type, got {doc!r}"
        )
    fields = []
    for name, type_name in doc.items():
        try:
            ftype = FieldType(type_name)
        except ValueError:
            valid = sorted(t.value for t in FieldType)
            raise WorkflowSpecError(
                f"{context}: field {name!r} has unknown type {type_name!r} "
                f"(valid: {valid})"
            ) from None
        fields.append(Field(name, ftype))
    return Schema(fields)


#: Leaf predicate builders: op name -> (builder, required value key).
_PREDICATE_LEAVES = {
    "equals": (column_equals, "value"),
    "not_equals": (column_not_equals, "value"),
    "in": (column_in, "values"),
    "not_in": (column_not_in, "values"),
    "greater": (column_greater, "value"),
    "less": (column_less, "value"),
}


def _resolve_predicate_form(value: Dict[str, Any], context: str) -> Predicate:
    doc = _single_key(value, "$predicate", context)
    return _build_predicate(doc, context)


def _build_predicate(doc: Any, context: str) -> Predicate:
    if not isinstance(doc, dict) or "op" not in doc:
        raise WorkflowSpecError(
            f"{context}: $predicate must be an object with an 'op' key, "
            f"got {doc!r}"
        )
    op = doc["op"]
    if op in _PREDICATE_LEAVES:
        builder, value_key = _PREDICATE_LEAVES[op]
        _check_keys(doc, {"op", "column", value_key}, context)
        return builder(_column_of(doc, context), doc.get(value_key))
    if op == "is_not_null":
        _check_keys(doc, {"op", "column"}, context)
        return column_is_not_null(_column_of(doc, context))
    if op == "all" or op == "any":
        _check_keys(doc, {"op", "of"}, context)
        parts = doc.get("of")
        if not isinstance(parts, list):
            raise WorkflowSpecError(
                f"{context}: predicate {op!r} needs a list under 'of'"
            )
        built = [
            _build_predicate(part, f"{context}.of[{i}]")
            for i, part in enumerate(parts)
        ]
        return all_of(built) if op == "all" else any_of(built)
    if op == "not":
        _check_keys(doc, {"op", "of"}, context)
        return negate(_build_predicate(doc.get("of"), f"{context}.of"))
    if op == "udf":
        _check_keys(doc, {"op", "fn", "description"}, context)
        fn = import_callable(doc.get("fn"), f"{context}.fn")
        return udf_predicate(fn, doc.get("description", "udf"))
    known = sorted([*_PREDICATE_LEAVES, "is_not_null", "all", "any", "not", "udf"])
    raise WorkflowSpecError(
        f"{context}: unknown predicate op {op!r} (valid: {known})"
    )


def _column_of(doc: Dict[str, Any], context: str) -> str:
    column = doc.get("column")
    if not isinstance(column, str) or not column:
        raise WorkflowSpecError(
            f"{context}: predicate {doc.get('op')!r} needs a 'column' "
            f"string, got {column!r}"
        )
    return column


def _check_keys(doc: Dict[str, Any], allowed: set, context: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise WorkflowSpecError(
            f"{context}: predicate {doc.get('op')!r} has unknown keys "
            f"{unknown} (allowed: {sorted(allowed)})"
        )
