"""The spec layer: grammar round-trip, resolution, registry.

The GUI paradigm's defining property is that a pipeline is *data* — a
versioned JSON document validated at editing time.  These tests pin
the grammar surface: ``to_json``/``from_json`` round-trip exactly,
structural errors name the offending element, resolution forms import
and bind correctly, and unknown anything (version, key, type,
language, param) fails with the catalogue on screen.
"""

import json

import pytest

from repro.errors import WorkflowSpecError
from repro.paradigm import SinkDiff, diff_rows, run_both
from repro.relational import FieldType, Schema, Table
from repro.workflow.spec import (
    SPEC_VERSION,
    WorkflowSpec,
    build_workflow,
    callable_form,
    dump_spec_doc,
    import_callable,
    load_workflow_json,
    operator_factory,
    operator_types,
    param_form,
    read_spec,
    register_operator_type,
    schema_form,
)
from repro.workflow.spec.registry import _REGISTRY

SCHEMA = Schema.of(id=FieldType.INT, score=FieldType.FLOAT)


def minimal_doc():
    return {
        "spec": SPEC_VERSION,
        "name": "minimal",
        "operators": [
            {
                "id": "scan",
                "type": "table_source",
                "config": {"table": {"$param": "rows"}},
            },
            {
                "id": "keep",
                "type": "filter",
                "config": {
                    "predicate": {
                        "$predicate": {"op": "greater", "column": "score", "value": 0.5}
                    }
                },
            },
            {"id": "view", "type": "sink", "config": {}},
        ],
        "links": [
            {"from": "scan", "to": "keep"},
            {"from": "keep", "to": "view"},
        ],
    }


def bindings():
    table = Table.from_rows(SCHEMA, [[i, i / 4] for i in range(8)])
    return {"rows": table}


# -- model: parse + round-trip -------------------------------------------------


def test_round_trip_is_exact():
    spec = WorkflowSpec.from_json(minimal_doc())
    again = WorkflowSpec.from_json(spec.to_json())
    assert again == spec
    assert again.to_json() == spec.to_json()
    # and the canonical document survives a JSON text cycle
    assert WorkflowSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec


def test_nan_config_value_fails_serialization_with_grammar_error():
    # Regression: json.dumps emits the non-standard NaN/Infinity tokens
    # by default, producing a document strict parsers reject — a spec
    # that "saved fine" but could never be loaded back.
    doc = minimal_doc()
    doc["operators"][1]["config"]["threshold"] = float("nan")
    spec = WorkflowSpec.from_json(doc)
    with pytest.raises(WorkflowSpecError, match="non-finite"):
        dump_spec_doc(spec.to_json())


@pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
def test_infinities_fail_serialization_too(bad):
    doc = minimal_doc()
    doc["operators"][1]["config"]["limit"] = bad
    with pytest.raises(WorkflowSpecError, match="non-finite"):
        dump_spec_doc(WorkflowSpec.from_json(doc).to_json())


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_nan_tokens_are_rejected_at_parse_time(token):
    # The parse side of the same contract: Python's json module accepts
    # these non-standard tokens by default, which would let a broken
    # document round-trip silently.
    text = json.dumps(minimal_doc())
    text = text.replace('"config": {}', f'"config": {{"x": {token}}}')
    assert token in text
    with pytest.raises(WorkflowSpecError, match="non-standard JSON token"):
        load_workflow_json(text)


def test_non_ascii_operator_ids_round_trip_losslessly():
    doc = minimal_doc()
    doc["operators"][1]["id"] = "garde-café-π"
    doc["links"] = [
        {"from": "scan", "to": "garde-café-π"},
        {"from": "garde-café-π", "to": "view"},
    ]
    spec = WorkflowSpec.from_json(doc)
    text = dump_spec_doc(spec.to_json())
    assert "garde-café-π" in text  # not \u-escaped
    assert WorkflowSpec.from_json(json.loads(text)) == spec


def test_params_are_discovered_recursively():
    doc = minimal_doc()
    doc["operators"][1]["config"]["extra"] = [{"nested": {"$param": "knob"}}]
    assert WorkflowSpec.from_json(doc).params() == ["knob", "rows"]


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(spec="repro/workflow-spec@99"), "unsupported spec version"),
        (lambda d: d.update(bogus=1), "unknown top-level keys"),
        (lambda d: d.update(name=""), "'name' must be a non-empty string"),
        (lambda d: d.update(operators=[]), "'operators' must be a non-empty array"),
        (lambda d: d["operators"][0].pop("id"), "'id' must be a non-empty string"),
        (lambda d: d["operators"][0].update(extra=1), "unknown keys"),
        (
            lambda d: d["operators"].append(dict(d["operators"][0])),
            "duplicate operator id 'scan'",
        ),
        (
            lambda d: d["links"].append({"from": "ghost", "to": "view"}),
            "references unknown operator 'ghost'",
        ),
        (
            lambda d: d["links"].append({"from": "scan", "to": "keep"}),
            "duplicate link into input port 0 of operator 'keep'",
        ),
    ],
)
def test_structural_errors_name_the_element(mutate, fragment):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(WorkflowSpecError) as excinfo:
        WorkflowSpec.from_json(doc)
    assert fragment in str(excinfo.value)


def test_cycles_are_rejected_at_spec_level():
    doc = minimal_doc()
    doc["operators"][0] = {"id": "scan", "type": "filter", "config": {}}
    doc["links"].append({"from": "keep", "to": "scan"})
    with pytest.raises(WorkflowSpecError) as excinfo:
        WorkflowSpec.from_json(doc)
    assert "cycle" in str(excinfo.value)
    assert "'keep'" in str(excinfo.value) and "'scan'" in str(excinfo.value)


def test_a_spec_cycle_error_leaves_out_operators_up_and_downstream():
    doc = minimal_doc()
    doc["operators"][1] = {"id": "keep", "type": "union"}
    doc["operators"].insert(2, {"id": "again", "type": "filter"})
    doc["links"] = [
        {"from": "scan", "to": "keep"},
        {"from": "keep", "to": "again"},
        {"from": "again", "to": "keep", "in": 1},
        {"from": "again", "to": "view"},
    ]
    with pytest.raises(WorkflowSpecError) as excinfo:
        WorkflowSpec.from_json(doc)
    assert str(excinfo.value).endswith(
        "cycle involving operators ['again', 'keep']"
    )


# -- loader: resolution + document order ---------------------------------------


def test_build_workflow_preserves_document_order():
    wf = build_workflow(WorkflowSpec.from_json(minimal_doc()), bindings())
    assert list(wf.operators) == ["scan", "keep", "view"]
    assert [(l.producer_id, l.consumer_id) for l in wf.links] == [
        ("scan", "keep"),
        ("keep", "view"),
    ]


def test_load_workflow_json_accepts_text_and_runs():
    wf = load_workflow_json(json.dumps(minimal_doc()), bindings())
    schemas = wf.compile_schemas()
    assert schemas["view"].names == ["id", "score"]


def test_unbound_param_names_the_operator_and_known_bindings():
    with pytest.raises(WorkflowSpecError) as excinfo:
        build_workflow(WorkflowSpec.from_json(minimal_doc()), {"wrong": 1})
    message = str(excinfo.value)
    assert "operator 'scan' (table_source).table" in message
    assert "unbound $param 'rows'" in message
    assert "'wrong'" in message


def test_unknown_operator_type_names_the_catalogue():
    doc = minimal_doc()
    doc["operators"][1]["type"] = "filtr"
    with pytest.raises(WorkflowSpecError) as excinfo:
        build_workflow(WorkflowSpec.from_json(doc), bindings())
    assert "unknown operator type 'filtr'" in str(excinfo.value)
    assert "filter" in str(excinfo.value)  # the catalogue is on screen


def test_unknown_language_and_bad_kwarg_are_scoped():
    doc = minimal_doc()
    doc["operators"][1]["config"]["language"] = "rust"
    with pytest.raises(WorkflowSpecError, match="unknown language 'rust'"):
        build_workflow(WorkflowSpec.from_json(doc), bindings())
    doc = minimal_doc()
    doc["operators"][1]["config"]["wibble"] = 3
    with pytest.raises(WorkflowSpecError) as excinfo:
        build_workflow(WorkflowSpec.from_json(doc), bindings())
    assert "operator 'keep' (filter): bad config" in str(excinfo.value)


@pytest.mark.parametrize(
    "ref, fragment",
    [
        ("no-colon", "must be a 'module:qualname' string"),
        ("no.such.module:fn", "cannot import module"),
        ("json:no_such_attr", "has no attribute"),
        ("json:__version__", "is not callable"),
    ],
)
def test_callable_resolution_errors(ref, fragment):
    with pytest.raises(WorkflowSpecError) as excinfo:
        import_callable(ref, "operator 'x' (map).fn")
    assert fragment in str(excinfo.value)
    assert "operator 'x' (map).fn" in str(excinfo.value)


def test_bad_schema_type_and_bad_predicate_op():
    doc = minimal_doc()
    doc["operators"][1]["config"]["shape"] = {"$schema": {"id": "integer"}}
    with pytest.raises(WorkflowSpecError, match="unknown type 'integer'"):
        build_workflow(WorkflowSpec.from_json(doc), bindings())
    doc = minimal_doc()
    doc["operators"][1]["config"]["predicate"] = {"$predicate": {"op": "gte"}}
    with pytest.raises(WorkflowSpecError) as excinfo:
        build_workflow(WorkflowSpec.from_json(doc), bindings())
    assert "gte" in str(excinfo.value)


@pytest.mark.parametrize(
    "predicate, kept",
    [
        ({"op": "not_equals", "column": "category", "value": "sign"},
         ["e2", "e3", "e5", "e6"]),
        ({"op": "not_in", "column": "category", "values": ["sign", "symptom"]},
         ["e3", "e5"]),
    ],
    ids=["not_equals", "not_in"],
)
def test_negated_predicate_ops_keep_the_same_rows_under_both_paradigms(
    predicate, kept
):
    categories = ["sign", "symptom", "disorder", "sign", "medication", "symptom"]
    doc = {
        "spec": SPEC_VERSION,
        "name": "negated",
        "operators": [
            {
                "id": "events",
                "type": "jsonl_source",
                "config": {
                    "records": [
                        {"id": f"e{i}", "category": c}
                        for i, c in enumerate(categories, start=1)
                    ],
                    "schema": {"$schema": {"id": "string", "category": "string"}},
                },
            },
            {"id": "keep", "type": "filter", "config": {"predicate": {"$predicate": predicate}}},
            {"id": "view", "type": "sink", "config": {}},
        ],
        "links": [{"from": "events", "to": "keep"}, {"from": "keep", "to": "view"}],
    }
    workflow, script = run_both(doc)
    assert diff_rows(workflow, script) == [SinkDiff("view", len(kept), len(kept), True)]
    assert sorted(row["id"] for row in workflow.tables["view"]) == kept


# -- forms: authoring helpers round-trip through the loader --------------------


def test_forms_round_trip():
    assert param_form("rows") == {"$param": "rows"}
    assert callable_form(json.loads) == {"$callable": "json:loads"}
    assert import_callable(callable_form(json.loads)["$callable"], "t") is json.loads
    form = schema_form(SCHEMA)
    assert form == {"$schema": {"id": "int", "score": "float"}}


# -- registry ------------------------------------------------------------------


def test_registry_rejects_duplicates():
    marker = lambda operator_id, **config: None  # noqa: E731
    register_operator_type("test_spec_dummy", marker)
    try:
        assert operator_factory("test_spec_dummy") is marker
        with pytest.raises(WorkflowSpecError, match="already registered"):
            register_operator_type("test_spec_dummy", marker)
        assert "test_spec_dummy" in operator_types()
        assert operator_types() == sorted(operator_types())
    finally:
        del _REGISTRY["test_spec_dummy"]
    assert "test_spec_dummy" not in operator_types()


def test_builtin_palette_is_registered():
    for name in ("table_source", "filter", "projection", "map", "hash_join", "sink"):
        assert name in operator_types()


# -- committed example files ---------------------------------------------------


def test_committed_examples_parse(repo_examples=None):
    from pathlib import Path

    root = Path(__file__).resolve().parents[2] / "examples" / "workflows"
    files = sorted(root.glob("*.json"))
    assert files, "examples/workflows/ must hold the task specs"
    for path in files:
        spec = read_spec(path)
        assert spec.version == SPEC_VERSION
        again = WorkflowSpec.from_json(spec.to_json())
        assert again == spec
