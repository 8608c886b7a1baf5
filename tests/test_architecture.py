"""The package's design rules as data, checked on the syntax trees of ``src/repro``: the
import order (the ``layers`` block of ``docs/architecture.md``), ``OWNERS`` (where the
names a rule is about may occur) and the tests that prove a rule by running the code."""

import ast
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
DOC = (REPO / "docs" / "architecture.md").read_text("utf-8")
LAYERS = re.search(r"```layers\n(.*?)```", DOC, re.S).group(1).splitlines()[::-1]  # bottom-up
LAYER = {name: level for level, line in enumerate(LAYERS) for name in line.split()}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
TYPING = ("TYPE_CHECKING", "typing.TYPE_CHECKING")
NODES, WORDS, IMPORTS = {}, {}, []  # owner -> nodes; owner -> what they name; (owner, module)


def index(node, owner):
    """File nodes by owner: the dotted module plus enclosing classes, defs, TYPE_CHECKING blocks."""
    for child in ast.iter_child_nodes(node):
        NODES.setdefault(owner, []).append(child)
        words = WORDS.setdefault(owner, set())
        for word in (getattr(child, field) for field in child._fields):
            if isinstance(word, str):  # a name, an imported module or a string constant
                words.update({word, *word.split(".")})
        if isinstance(child, (ast.Import, ast.ImportFrom)):  # relative imports: see OWNERS
            origin = f"{child.module}." if isinstance(child, ast.ImportFrom) else ""
            IMPORTS.extend((owner, origin + alias.name) for alias in child.names)
        if isinstance(child, SCOPES):
            words.add(f"def {child.name}")
            index(child, f"{owner}.{child.name}")
        elif isinstance(child, ast.If) and ast.unparse(child.test) in TYPING:
            index(ast.Module(child.body, []), f"{owner}.TYPE_CHECKING")
            index(ast.Module(child.orelse, []), owner)
        else:
            index(child, owner)


for path in sorted((REPO / "src").rglob("*.py")):
    module = ".".join(path.relative_to(REPO / "src").with_suffix("").parts)
    index(ast.parse(path.read_text("utf-8")), module.removesuffix(".__init__"))


def top(name):
    """The layer-table name of a dotted module or owner: ``repro`` for the package root."""
    return (name.split(".") + ["repro"])[1]


def test_every_runtime_import_goes_to_its_own_layer_or_below():
    assert {top(owner) for owner in NODES} == set(LAYER)
    assert not [
        f"{owner} imports {name}" for owner, name in IMPORTS
        if name.split(".")[0] == "repro" and ".TYPE_CHECKING" not in owner
        and LAYER.get(top(name), LAYER["repro"]) > LAYER[top(owner)]
    ]


STORE = "repro.rayx.objectstore.ObjectStore."
LEDGER = f"{STORE}_attach {STORE}_detach {STORE}_unreserve"
OWNERS = {  # rule: (node types, or None for names, defs as "def NAME" and strings; a pattern
    # searched in the nodes' code or matching a whole name; owners searched; owners allowed)
    "absolute imports": (ast.ImportFrom, r"^from \.", "repro", ""),
    "placement": (None, "worker_round_robin|_(placement|task)_counter", "repro", "repro.sched"),
    "one row oracle": (ast.Call, r"^sorted\(\(?tuple\(", "repro", "repro.relational.table"),
    "one task table": (ast.Call, r"(generate_(maccrobat|fsqa|wildfire_tweets)|make_kge_dataset)\(",
                       "repro.experiments repro.jobs", ""),
    "module reflection": (None, "importlib|import_module|__import__", "repro.jobs.bodies", ""),
    "incremental admission": ((ast.Call, ast.comprehension),
        r"sorted\(pending|^ for .* if .*state == \S*(QUEUED|'queued')", "repro.jobs", ""),
    "one replica ledger": ((ast.Call, ast.AugAssign),
        r"\.((allocate|free)_ram|replicas\.(add|discard|clear))\(|bytes_live [-+]=",
        "repro.rayx", LEDGER),
    "its memory-policy forks": (ast.Attribute, r"\bmem\.active$",
        "repro.rayx", f"{LEDGER} {STORE}get {STORE}migrate_node"),
    "nothing reads the examples tree": (None, ".*(task_spec|TASK_SPEC_DIR).*", "repro", ""),
    "one sizing kernel": (None, "def estimate_bytes", "repro", "repro.cluster.serialization"),
    "a row's cached size": (None, "_nbytes", "repro", "repro.relational.tup"),
    "one event loop": (None, "NORMAL|URGENT|_step_.*|_pop_entry|step|_schedule", "repro.sim", ""),
}


def under(owner, prefixes):
    return any(f"{owner}.".startswith(f"{prefix}.") for prefix in prefixes.split())


@pytest.mark.parametrize("rule", OWNERS)
def test_names_occur_only_where_the_rule_allows(rule):
    kind, code, scope, allowed = OWNERS[rule]
    assert not [
        owner for owner, nodes in NODES.items()
        if under(owner, scope) and not under(owner, allowed) and (
            any(isinstance(n, kind) and re.search(code, ast.unparse(n)) for n in nodes) if kind
            else any(re.fullmatch(code, word) for word in WORDS.get(owner, ())))
    ]


@pytest.mark.parametrize("pin", [  # on-demand operator types, one charge, one sizing kernel
    "tests/test_paradigm.py::"
    "test_on_demand_types_resolve_and_the_seam_loads_no_task_or_gen_package",
    "tests/cluster/test_charge_counts.py::test_every_task_holds_vcpus_only_through_charge",
    "tests/rayx/test_sizing_counts.py::test_storing_sized_rows_makes_a_flat_number_of_calls",
])
def test_each_rule_proven_by_running_keeps_its_test(pin):
    path, name = pin.split("::")
    assert f"\ndef {name}(" in (REPO / path).read_text("utf-8")


def test_test_modules_share_helpers_only_through_tests_support():
    crossings = [
        f"{path.relative_to(REPO)}: {name}"
        for path in sorted((REPO / "tests").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (f"{getattr(node, 'module', '')}.{alias.name}" for alias in node.names)
        if re.match(r"\.?tests(\.\w+)*\.test_", name)
    ]
    assert crossings == []
