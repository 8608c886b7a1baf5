"""A multi-experiment run renders its reports in a ``fork`` pool.

Stdout must not tell the pool from the serial loop: the same bytes,
the same exception after the same printed prefix, no worker left
behind.  Tracers and layer flags keep the run serial, since their
end-of-run summaries gather state in the parent.
"""

import io
import multiprocessing
import multiprocessing.pool
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import cli
from repro.cli import EXIT_CLOSED_STDOUT, QUICK_EXPERIMENTS, main
from repro.errors import OperatorError

SRC = Path(__file__).resolve().parents[2] / "src"
#: Three experiments that take a few hundredths of a second at --quick.
CHEAP = ["fig12a", "fig13d", "fig14b"]


@pytest.fixture(autouse=True)
def deadline():
    """A hung pool fails its test instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError("the CLI's pool did not finish in 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the pools the CLI makes."""
    made = []

    class Spy(multiprocessing.pool.Pool):
        def __init__(self, processes, *args, **kwargs):
            made.append(processes)
            super().__init__(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", Spy)
    return made


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def run(capsys, argv):
    """(exit code or raised exception, stdout)."""
    try:
        outcome = main(argv)
    except Exception as exc:  # compared between the two paths
        outcome = exc
    return outcome, capsys.readouterr().out


def serial_and_parallel(capsys, monkeypatch, argv):
    cpus(monkeypatch, 1)
    serial = run(capsys, argv)
    cpus(monkeypatch, 2)
    return serial, run(capsys, argv)


def _explode():
    raise OperatorError("tokenize", "exploded: bad row")


def test_the_pool_prints_the_serial_bytes(capsys, monkeypatch, pools):
    serial, parallel = serial_and_parallel(capsys, monkeypatch, [*CHEAP, "--quick"])
    assert pools == [2]
    assert serial == parallel
    assert serial[0] == 0 and all(f"{name}:" in serial[1] for name in CHEAP)
    assert not multiprocessing.active_children()


def test_a_worker_error_surfaces_as_on_the_serial_path(capsys, monkeypatch, pools):
    monkeypatch.setitem(QUICK_EXPERIMENTS, "explode", _explode)
    argv = ["fig12a", "explode", "fig14b", "--quick"]
    (serial, serial_out), (parallel, parallel_out) = serial_and_parallel(
        capsys, monkeypatch, argv
    )
    assert pools == [2]
    assert type(parallel) is type(serial) is OperatorError
    assert (parallel.args, parallel.operator_id) == (serial.args, serial.operator_id)
    assert parallel_out == serial_out
    assert serial_out.startswith("fig12a:") and "fig14b:" not in serial_out
    assert not multiprocessing.active_children()


class ClosesAfter(io.StringIO):
    """A stdout whose reader goes away after ``writes`` writes."""

    def __init__(self, writes):
        super().__init__()
        self.writes = writes

    def write(self, text):
        if not self.writes:
            raise BrokenPipeError(32, "Broken pipe")
        self.writes -= 1
        return super().write(text)


def test_a_closed_stdout_ends_the_pool(monkeypatch, pools):
    cpus(monkeypatch, 2)
    stdout = ClosesAfter(3)  # the first report, its newline, a blank line
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([*CHEAP, "--quick"]) == EXIT_CLOSED_STDOUT
    assert pools == [2]
    assert stdout.getvalue().startswith("fig12a:") and "fig13d:" not in stdout.getvalue()
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("argv", [
    ["mem"],
    ["fig12a", "fig14b", "--quick"],
], ids=["subcommand", "experiments"])
def test_a_closed_stdout_exits_quietly(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader is gone before the first write
    try:
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
    assert (code, err) == (EXIT_CLOSED_STDOUT, "")


@pytest.mark.parametrize("extra", [
    ["--cache", "on"],
    ["--scheduler", "locality"],
    ["--jobs", "off"],
], ids=lambda extra: extra[0])
def test_a_layer_flag_keeps_the_run_serial(capsys, monkeypatch, pools, extra):
    # The stdout compared includes the layer's end-of-run summary line.
    serial, parallel = serial_and_parallel(
        capsys, monkeypatch, ["fig13a", "fig14b", "--quick", *extra]
    )
    assert pools == []
    assert serial == parallel and serial[0] == 0


def test_a_tracer_keeps_the_run_serial(capsys, monkeypatch, pools):
    serial, parallel = serial_and_parallel(capsys, monkeypatch, ["trace", *CHEAP, "--quick"])
    assert pools == []
    assert serial == parallel and "\nrun 1 · " in serial[1]


def test_worker_count(monkeypatch):
    cpus(monkeypatch, 2)
    assert [cli._workers(n) for n in (1, 2, 17)] == [1, 2, 2]
    cpus(monkeypatch, 8)
    assert cli._workers(3) == 3
    cpus(monkeypatch, 1)
    assert cli._workers(17) == 1


def test_a_second_thread_or_no_fork_keeps_the_run_serial(monkeypatch):
    cpus(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert cli._workers(3) == 1
    finally:
        release.set()
        thread.join()
    assert cli._workers(3) == 2
    monkeypatch.delattr(os, "fork")
    assert cli._workers(3) == 1


#: Three reports in a pool of two; the middle one raises an exception
#: whose ``__init__`` cannot take its own ``args`` back.
PICKY = """
from functools import partial
from repro import cli

class Picky(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")

class Report(str):
    def to_text(self):
        if self == "bad":
            raise Picky("a", "b")
        return str(self)

try:
    with cli._reports([partial(Report, text) for text in ("ok", "bad", "ok")], 2) as reports:
        for text in reports:
            print(text)
except Exception as exc:
    print(type(exc).__name__, exc)
"""


def test_an_exception_that_cannot_be_unpickled_reaches_the_parent():
    # A session of its own: on a hang the child and its pool die together.
    proc = subprocess.Popen(
        [sys.executable, "-c", PICKY], env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the pool hung on an exception it could not unpickle")
    assert (proc.returncode, out.decode(), err.decode()) == (0, "ok\nReproError Picky: a and b\n", "")
