"""Pluggable scheduling & placement, shared by both engines.

Until this package existed, every placement decision in the repo was a
hard-coded round-robin call on the cluster — the script runtime's task
submission, its retry/lineage-reconstruction paths, its actor
placement, and the workflow engine's operator-instance layout.
``repro.sched`` extracts those decisions into one swappable layer (the
old ``Cluster`` shim is gone; the arithmetic lives only in the
``round_robin`` policy):

* :class:`PlacementPolicy` — the strategy interface, with a catalogue
  of implementations (``round_robin``, ``least_loaded``, ``locality``,
  ``packed``, ``spread``, ``drf``; see :mod:`repro.sched.policy`);
* :class:`Scheduler` — one per engine session; owns per-node load
  accounts, filters candidates through the fault injector's outage
  windows, and emits every decision to the observability layer.

Selecting a policy follows the tracer/injector pattern:

>>> from repro.sched import scheduling
>>> with scheduling("locality"):
...     run = run_kge_script(fresh_cluster(), dataset, num_cpus=4)

or for one engine session via ``Scheduler(cluster, policy="locality")``,
or from the command line with ``python -m repro fig13d --scheduler locality``
(``python -m repro sched`` prints the catalogue).  The explicit
argument beats the installed policy, which beats ``round_robin``.

The default ``round_robin`` policy reproduces the seed's placement
bit-identically — pinned by ``tests/obs/test_timing_regression.py`` —
and *every* policy produces identical task/workflow outputs (placement
changes timing, never results; pinned by the hypothesis suite in
``tests/properties/test_sched_props.py``).
"""

from __future__ import annotations

from repro.layer import Slot
from repro.sched.policy import (
    DEFAULT_POLICY,
    POLICIES,
    DrfPolicy,
    LeastLoadedPolicy,
    LocalityPolicy,
    PackedPolicy,
    PlacementPolicy,
    PlacementRequest,
    RoundRobinPolicy,
    SpreadPolicy,
    make_policy,
    policy_catalogue,
    valid_policy,
)
from repro.sched.scheduler import NodeAccount, Scheduler

__all__ = [
    "PlacementPolicy",
    "PlacementRequest",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "LocalityPolicy",
    "PackedPolicy",
    "SpreadPolicy",
    "DrfPolicy",
    "NodeAccount",
    "Scheduler",
    "POLICIES",
    "DEFAULT_POLICY",
    "make_policy",
    "policy_catalogue",
    "valid_policy",
    "install_policy",
    "uninstall_policy",
    "current_policy_name",
    "scheduling",
]

def _validated(name: str) -> str:
    make_policy(name)  # raises UnknownPolicy
    return name


#: The globally installed policy name, if any: the default for
#: schedulers built afterwards (else ``round_robin``).
_slot = Slot(_validated)
install_policy = _slot.install
uninstall_policy = _slot.uninstall
current_policy_name = _slot.current
#: ``with scheduling("least_loaded"): ...``
scheduling = _slot.scoped
