"""Which functions in ``src/repro`` does no run ever enter?

A reachability audit built on the standard library (``coverage`` is
not a dependency).  ``collect`` runs one command with every Python
interpreter it starts profiled: a generated ``sitecustomize`` on
``PYTHONPATH`` installs ``sys.setprofile`` and ``threading.setprofile``
in each interpreter that inherits the variable, and each interpreter
writes, as it exits, the ``(file, firstlineno)`` of every code object
under ``src/repro`` it entered.  ``report`` walks ``src/repro`` with
``ast`` and lists every function that no collected run entered.
``measure`` collects the standard set below and reports it.

Usage::

    python tools/reach.py measure OUT               # standard set + report
    python tools/reach.py collect OUT -- CMD [ARG ...]
    python tools/reach.py report OUT [OUT ...]

The standard set is tier-1 (``python -m pytest -q``), the ``cli-smoke``
commands of ``.github/workflows/ci.yml`` (read from that file, see
:func:`ci_smoke_commands`), ``bench/run.py --quick --trace 0`` (the
traced pass's ``cProfile`` would replace the profiler) and
``examples/*.py``.  Each lands in its own subdirectory of OUT, so a
report over every subdirectory but ``OUT/tests`` lists what only tests
reach.

Each never-entered function gets a kind: ``repr`` (``__repr__``),
``stub`` (abstract: ``@abstractmethod``, a ``Protocol`` member, or a
body that is only a docstring, ``pass``, ``...`` or ``raise
NotImplementedError``), ``null`` (a method of a ``Null*`` null-object
class) or ``other`` — the ones to delete, or to pin with a test when
they are a contract.

Limits: an interpreter that replaces ``PYTHONPATH`` (bench's
``cli_all_quick`` child) or installs its own profiler without chaining
to the one it found is not covered, and one that leaves through
``os._exit`` writes nothing, unless it is a forked ``multiprocessing``
worker (the CLI's pool), which writes as it runs its finalizers.
Functions are matched by the line of their first decorator, as
``co_firstlineno`` is; lambdas and comprehensions are not listed.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import re
import shlex
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
CI = ROOT / ".github" / "workflows" / "ci.yml"
#: Where each profiled interpreter writes its hits (set by ``collect``).
OUT_ENV = "REPRO_REACH_OUT"

SITECUSTOMIZE = """\
import importlib.util

_spec = importlib.util.spec_from_file_location("_repro_reach", {tool!r})
_reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_reach)
_reach.install()
"""


# -- collecting --------------------------------------------------------------


def install() -> None:
    """Record every code object this interpreter enters; dump at exit."""
    out = os.environ.get(OUT_ENV)
    if not out:
        return
    seen = set()
    add = seen.add

    def profile(frame, event, arg):
        add(frame.f_code)

    def dump() -> None:
        sys.setprofile(None)
        prefix = str(PACKAGE) + os.sep
        hits = sorted(
            {
                (os.path.relpath(path, SRC), code.co_firstlineno)
                for code in seen
                for path in [os.path.abspath(code.co_filename)]
                if path.startswith(prefix)
            }
        )
        name = Path(out) / f"{os.getpid()}-{id(seen):x}.json"
        name.write_text(json.dumps(hits), encoding="utf-8")

    def after_fork_in_child() -> None:
        # A forked multiprocessing worker leaves through ``os._exit``,
        # so atexit never runs there; its finalizers do, but it clears
        # them once forked, just before it runs its after-fork hooks.
        util = sys.modules.get("multiprocessing.util")
        if util is not None:
            util.register_after_fork(
                dump, lambda dump: util.Finalize(None, dump, exitpriority=0)
            )

    atexit.register(dump)
    os.register_at_fork(after_in_child=after_fork_in_child)
    sys.setprofile(profile)
    threading.setprofile(profile)


def collect(out: Path, command: list) -> int:
    """Run ``command`` from the repo root with every interpreter profiled."""
    site = out / "site"
    site.mkdir(parents=True, exist_ok=True)
    (site / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(tool=str(Path(__file__).resolve())), encoding="utf-8"
    )
    path = [str(site), str(SRC)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    hits = out / "hits"
    hits.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env[OUT_ENV] = str(hits)
    return subprocess.run(command, cwd=ROOT, env=env).returncode


def ci_smoke_commands(text: str) -> list:
    """The ``python -m repro`` arguments the ``cli-smoke`` job runs, in order.

    ``text`` is the CI workflow file; it is read line by line, since
    a YAML parser is not a dependency.  Continued lines are joined; a
    ``$VAR`` bound by a step's ``for VAR in GLOB; do`` loop expands
    over the sorted glob; a command that reads any other variable (a
    file the step itself writes) is left out; repeats are run once.
    """
    job = re.split(r"\n  \S", text.split("\n  cli-smoke:\n", 1)[1], 1)[0]
    commands = []
    for step in re.split(r"\n      - ", job)[1:]:
        step = step.replace("\\\n", " ")
        loops = dict(re.findall(r"for (\w+) in (\S+); do", step))
        for line in step.splitlines():
            if "-m repro" not in line:
                continue
            lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
            lexer.whitespace_split = True
            tokens = [*lexer, ";"]
            starts = [
                i + 3 for i in range(len(tokens))
                if tokens[i:i + 3] == ["python", "-m", "repro"]
            ]
            for start in starts:
                end = next(i for i in range(start, len(tokens))
                           if tokens[i][0] in lexer.punctuation_chars)
                if tokens[end][0] in "<>" and tokens[end - 1].isdigit():
                    end -= 1  # the file descriptor of ``2>&1``
                argv = tokens[start:end]
                names = set(re.findall(r"\$(\w+)", " ".join(argv)))
                if not names:
                    runs = [argv]
                elif len(names) == 1 and names <= loops.keys():
                    (name,) = names
                    runs = [[tok.replace("$" + name, str(path.relative_to(ROOT)))
                             for tok in argv]
                            for path in sorted(ROOT.glob(loops[name]))]
                else:
                    continue
                for run in runs:
                    if run not in commands:
                        commands.append(run)
    return commands


def standard_runs(out: Path) -> dict:
    """The standard set: group name -> commands, run from the repo root."""
    py = sys.executable
    examples = sorted((ROOT / "examples").glob("*.py"))
    return {
        "tests": [[py, "-m", "pytest", "-q", "-p", "no:cacheprovider"]],
        "cli": [[py, "-m", "repro", *argv]
                for argv in ci_smoke_commands(CI.read_text(encoding="utf-8"))],
        "bench": [[py, "bench/run.py", "--quick", "--trace", "0",
                   "--out", str(out / "bench-result.json")]],
        "examples": [
            [py, str(p.relative_to(ROOT)),
             *(["--quick"] if p.name == "reproduce_paper.py" else [])]
            for p in examples
        ],
    }


# -- reporting ---------------------------------------------------------------


def load_hits(dirs) -> set:
    hits = set()
    for directory in dirs:
        for part in Path(directory).rglob("hits/*.json"):
            rows = json.loads(part.read_text(encoding="utf-8"))
            hits.update((path, line) for path, line in rows)
    return hits


def _is_stub(node) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # docstring
    if not body:
        return True
    if len(body) > 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def _names(nodes) -> set:
    return {ast.unparse(n).rsplit(".", 1)[-1].split("[", 1)[0] for n in nodes}


def _kind(node, owner) -> str:
    if node.name == "__repr__":
        return "repr"
    if "abstractmethod" in _names(node.decorator_list) or _is_stub(node):
        return "stub"
    if owner is not None:
        if "Protocol" in _names(owner.bases):
            return "stub"
        if owner.name.lstrip("_").startswith("Null"):
            return "null"
    return "other"


def functions():
    """Every function in ``src/repro``, outermost first.

    Yields ``(path, firstlineno, qualname, lines, kind, parent)`` where
    ``parent`` is the key of the enclosing function, if any.
    """
    for file in sorted(PACKAGE.rglob("*.py")):
        path = str(file.relative_to(SRC))
        tree = ast.parse(file.read_text(encoding="utf-8"), filename=str(file))

        def walk(node, prefix, owner, parent):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    yield from walk(child, f"{prefix}{child.name}.", child, parent)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    key = (path, first)
                    yield (path, first, prefix + child.name,
                           child.end_lineno - first + 1, _kind(child, owner), parent)
                    yield from walk(child, f"{prefix}{child.name}.", None, key)
                else:
                    yield from walk(child, prefix, owner, parent)

        yield from walk(tree, "", None, None)


def never_entered(hits: set) -> list:
    """Never-entered functions, without those nested in one."""
    missed = []
    dead = set()
    for path, first, qualname, lines, kind, parent in functions():
        if (path, first) in hits:
            continue
        dead.add((path, first))
        if parent in dead:
            continue
        missed.append({"path": path, "line": first, "qualname": qualname,
                       "lines": lines, "kind": kind})
    return missed


def summary(missed: list) -> str:
    return f"{len(missed)} functions / {sum(m['lines'] for m in missed)} lines"


def report(dirs) -> None:
    missed = never_entered(load_hits(dirs))
    for m in missed:
        print(f"{m['kind']:<6} {m['lines']:>4}  src/{m['path']}:{m['line']}  {m['qualname']}")
    by_kind = {}
    for m in missed:
        by_kind.setdefault(m["kind"], []).append(m)
    print(f"never entered: {summary(missed)} ("
          + ", ".join(f"{k} {summary(v)}" for k, v in sorted(by_kind.items()))
          + ")")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("measure", help="collect the standard set into OUT, then report")
    p.add_argument("out", type=Path)
    p = sub.add_parser("collect", help="run one command with every interpreter profiled")
    p.add_argument("out", type=Path)
    p.add_argument("command", nargs=argparse.REMAINDER)
    p = sub.add_parser("report", help="list src/repro functions no collected run entered")
    p.add_argument("out", type=Path, nargs="+")
    args = parser.parse_args(argv)

    if args.cmd == "collect":
        command = args.command[1:] if args.command[:1] == ["--"] else args.command
        if not command:
            parser.error("collect needs a command after --")
        return collect(args.out.resolve(), command)
    if args.cmd == "report":
        report(args.out)
        return 0

    out = args.out.resolve()
    groups = standard_runs(out)
    for group, commands in groups.items():
        for command in commands:
            code = collect(out / group, command)
            print(f"reach: [{group}] exit {code}: {' '.join(command[1:])}", file=sys.stderr)
    report([out / group for group in groups])
    untested = never_entered(load_hits([out / group for group in groups if group != "tests"]))
    print(f"without tier-1: {summary(untested)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
