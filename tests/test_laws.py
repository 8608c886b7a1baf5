"""Laws every cell of the matrix (``tests/support/cells.py``) obeys.

Both paradigms give each cell the same rows: the paper's claim, and
for the random specs the generator's acceptance bar.

Kernel ×2: when every delay the kernel schedules doubles, each cell's
virtual elapsed time doubles exactly and its rows do not change, with
the layers dormant and under a cache, a memory policy and the locality
scheduler.  So no decision in those compositions compares virtual time
with a hidden constant.  Faults, jobs and elastic are left out: their
schedules are absolute times, which only a scaled config can double.
"""

import pytest

from repro.cache import cached
from repro.mem import memory_managed
from repro.paradigm import PARADIGMS
from repro.sched import scheduling
from repro.sim import Environment
from repro.sim.core import Timeout
from tests.support.cells import CELLS, run

SLOTS = {
    "dormant": (),
    "cache": ((cached, "on"),),
    "mem": ((memory_managed, "on,ram=2gib,spill=0.7"),),
    "sched": ((scheduling, "locality"),),
}


def test_both_paradigms_give_every_cell_the_same_rows():
    for cell in CELLS:
        assert run(cell, "script").sinks == run(cell, "workflow").sinks, cell


def doubled(env, delay, value=None):
    return Timeout(env, 2 * delay, value)


@pytest.mark.parametrize("layer", SLOTS)
def test_doubling_every_delay_doubles_every_cell(layer, monkeypatch):
    slots = SLOTS[layer]
    plain = [(cell, p, run(cell, p, slots=slots)) for cell in CELLS for p in PARADIGMS]
    monkeypatch.setattr(Environment, "timeout", doubled)
    for cell, paradigm, before in plain:
        after = run(cell, paradigm, slots=slots)
        assert after.sinks == before.sinks, f"{cell}/{paradigm}"
        assert after.elapsed_s == 2 * before.elapsed_s, f"{cell}/{paradigm}"
