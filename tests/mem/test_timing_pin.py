"""The memory layer must not merely default off — it must pin the seed.

``tests/obs/test_timing_regression.py`` proves that runs with no
memory policy, or the *default* (dormant) one, installed reproduce the
pre-``repro.mem`` timings bit-identically.  This adds the stronger
case: *enabling* the policy on nodes with ample RAM — admission
succeeds without ever yielding, so even the active path is free until
there is actual pressure.
"""

from repro.datasets.fsqa import generate_fsqa
from repro.mem import memory_managed
from repro.tasks.base import fresh_cluster
from repro.tasks.gotta.script import run_gotta_script
from repro.tasks.kge.common import make_kge_dataset
from repro.tasks.kge.workflow import run_kge_workflow
from tests.obs.test_timing_regression import SEED_TIMINGS


def test_enabled_policy_with_ample_ram_charges_nothing():
    with memory_managed("on"):
        paras = generate_fsqa(1)
        kge = make_kge_dataset(300, universe_size=1000)
        script = run_gotta_script(fresh_cluster(), paras).elapsed_s
        workflow = run_kge_workflow(fresh_cluster(), kge).elapsed_s
    assert script == SEED_TIMINGS["gotta/script-1"]
    assert workflow == SEED_TIMINGS["kge/workflow"]
