"""The memory layer must not merely default off — it must pin the seed.

``tests/obs/test_timing_regression.py`` proves that runs with no
memory policy, or the *default* (dormant) one, installed reproduce the
pre-``repro.mem`` timings bit-identically.  This adds the stronger
case: *enabling* the policy on nodes with ample RAM — admission
succeeds without ever yielding, so even the active path is free until
there is actual pressure.
"""

from repro.mem import memory_managed
from tests.support.cells import PINNED, SEED_TIMINGS, run


def test_enabled_policy_with_ample_ram_charges_nothing():
    slots = [(memory_managed, "on")]
    assert run(PINNED["gotta"], "script", slots=slots).elapsed_s == SEED_TIMINGS["gotta/script"]
    assert run(PINNED["kge"], "workflow", slots=slots).elapsed_s == SEED_TIMINGS["kge/workflow"]
