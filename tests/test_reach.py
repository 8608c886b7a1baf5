"""``tools/reach.py`` runs the ``cli-smoke`` commands that CI runs.

Its ``cli`` group is read from ``.github/workflows/ci.yml`` rather than
restated, so a step added to or removed from the job changes what the
reachability audit runs with no second edit.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

JOB = """\
jobs:
  lint:
    steps:
      - run: PYTHONPATH=src python -m repro lint-only
  cli-smoke:
    steps:
      - name: Table's ids
        run: |
          PYTHONPATH=src python -m repro --list | diff - <(python -c "x")
      - name: A loop over committed specs
        run: |
          for spec in examples/workflows/*.json; do
            PYTHONPATH=src python -m repro compile "$spec"
          done
      - name: A file the step writes is not re-run
        run: |
          spec=$(mktemp)
          err=$(PYTHONPATH=src python -m repro compile "$spec" 2>&1) || code=$?
      - name: Continued lines, two commands on one line, a repeat
        run: |
          diff <(PYTHONPATH=src python -m repro memory --quick) \\
            <(PYTHONPATH=src python -m repro memory --quick --mem on)
          out=$(PYTHONPATH=src python -m repro fig13c --quick \\
            --faults seed=7,operators=3 2>&1)
          PYTHONPATH=src python -m repro memory --quick
  bench-harness:
    steps:
      - run: PYTHONPATH=src python -m repro bench-only
"""


def test_the_parser_reads_every_shape_the_job_uses():
    specs = sorted(ROOT.glob("examples/workflows/*.json"))
    assert specs
    assert reach.ci_smoke_commands(JOB) == [
        ["--list"],
        *(["compile", str(path.relative_to(ROOT))] for path in specs),
        ["memory", "--quick"],
        ["memory", "--quick", "--mem", "on"],
        ["fig13c", "--quick", "--faults", "seed=7,operators=3"],
    ]


def test_the_cli_group_is_the_cli_smoke_job():
    cli = reach.standard_runs(ROOT / "unused")["cli"]
    argvs = [command[3:] for command in cli]
    assert all(command[1:3] == ["-m", "repro"] for command in cli)
    for argv in (
        ["--list"],
        ["--quick"],
        ["fig13c", "--quick", "--faults", "seed=7,operators=3"],
        ["memory", "--quick"],
        ["memory", "--quick", "--mem", "on"],
        ["elasticity", "--quick"],
        ["elasticity", "--quick", "--elastic", "on"],
        ["elastic", "on,min=2,max=6,shape=fast"],
        ["compile", "examples/workflows/demo.json"],
        ["gen", "family=raster,run=off"],
        ["faults", "seed=7,tasks=2,nodes=1"],
        ["sched"],
        ["fig14a", "--quick", "--faults", "seed=12,replicas=3,nodes=2"],
    ):
        assert argv in argvs
    assert not [tok for argv in argvs for tok in argv if tok[0] in "$<>|;&()"]



#: Calls ``format_size`` only inside a forked pool worker, which is
#: closed and joined as the CLI's pool is.
POOL_ONLY = """\
import multiprocessing
from repro.layer import format_size

pool = multiprocessing.get_context("fork").Pool(1)
assert pool.map(format_size, [2048]) == ["2KiB"]
pool.close()
pool.join()
"""


def test_a_function_entered_only_in_a_pool_worker_is_reached(tmp_path):
    # The worker leaves through os._exit, which skips atexit.
    from repro.layer import format_size

    assert reach.collect(tmp_path, [sys.executable, "-c", POOL_ONLY]) == 0
    line = inspect.getsourcelines(format_size)[1]
    assert ("repro/layer.py", line) in reach.load_hits([tmp_path])
