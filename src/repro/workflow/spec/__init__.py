"""Workflow-as-data: the versioned JSON spec layer.

The paper's GUI paradigm treats a pipeline as *data* — a typed
operator DAG validated before execution — while scripts are code.
This package makes that distinction concrete for the reproduction:

* :mod:`model` — the ``repro/workflow-spec@1`` grammar with
  ``to_json``/``from_json`` round-tripping and structural validation;
* :mod:`registry` — operator-type names mapped onto the palette in
  ``repro.workflow.operators`` (task packages register custom types);
* :mod:`loader` — ``$param``/``$callable``/``$schema``/``$predicate``
  resolution and document-order workflow assembly.

One spec document compiles to both paradigms: :func:`build_workflow`
here for the Texera-like engine, and
:func:`repro.rayx.compile.compile_script_plan` for the Ray-like script
runtime.
"""

from repro.workflow.spec.forms import (
    callable_form,
    param_form,
    schema_form,
    udf_predicate_form,
)
from repro.workflow.spec.loader import (
    build_workflow,
    import_callable,
    load_workflow_json,
    read_spec,
    resolve_value,
)
from repro.workflow.spec.model import (
    SPEC_VERSION,
    LinkSpec,
    OperatorSpec,
    WorkflowSpec,
    dump_spec_doc,
)
from repro.workflow.spec.registry import (
    operator_factory,
    operator_types,
    register_operator_type,
)

__all__ = [
    "SPEC_VERSION",
    "LinkSpec",
    "OperatorSpec",
    "WorkflowSpec",
    "build_workflow",
    "callable_form",
    "dump_spec_doc",
    "import_callable",
    "param_form",
    "schema_form",
    "udf_predicate_form",
    "load_workflow_json",
    "operator_factory",
    "operator_types",
    "read_spec",
    "register_operator_type",
    "resolve_value",
]
