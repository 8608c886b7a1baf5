"""Elastic cluster membership + autoscaling: ``repro.elastic``.

The paper's scaling studies (Figs. 13/14) stop at a static 1-4
workers; real deployments of both paradigms run on fleets that grow
and shrink with load.  This package adds that dimension on top of the
layers beneath it:

* :meth:`repro.cluster.Cluster.add_node` /
  :meth:`~repro.cluster.Cluster.remove_node` — dynamic membership with
  virtual provisioning latency and draining (outstanding vCPU requests
  finish, sole object-store replicas migrate to survivors, RAM
  reservations clear) before a node retires;
* :data:`MACHINE_SHAPES` — heterogeneous machine shapes
  (``default``/``fast``/``slow``/``highmem``) for the fleets real
  scientific workflows ask for;
* :class:`Autoscaler` — a periodic process watching the quantities
  behind the ``repro.obs`` gauges (queue depth, ``sched.node_load``,
  ``mem.high_water``) with configurable scale-up/down rules, composing
  with the :mod:`repro.jobs` traffic generator.

Enabling it follows the pattern of every other layer:

>>> from repro.elastic import elastic_enabled
>>> from repro.jobs import JobService, JobsConfig
>>> with elastic_enabled("on,min=1,max=8,provision=3"):
...     summary = JobService(JobsConfig(enabled=True)).simulate()

or from the command line with ``--elastic SPEC`` (composes with
``repro jobs SPEC``); ``python -m repro elastic`` prints the grammar.

Dormant by default: nothing consults this package unless an autoscaler
is explicitly enabled, the node set stays exactly as built, and every
direct engine run is bit-identical to the seed virtual timings (pinned
by ``tests/obs/test_timing_regression.py``).
"""

from __future__ import annotations

from repro.config import ElasticConfig
from repro.elastic.autoscaler import Autoscaler
from repro.elastic.spec import (
    MACHINE_SHAPES,
    machine_shape,
    parse_elastic_spec,
)
from repro.layer import Slot

__all__ = [
    "ElasticConfig",
    "Autoscaler",
    "MACHINE_SHAPES",
    "machine_shape",
    "parse_elastic_spec",
    "install_elastic",
    "uninstall_elastic",
    "current_elastic_config",
    "elastic_enabled",
]

#: The globally installed config, if any: every job service built
#: afterwards attaches an autoscaler when it says ``on``.  Takes an
#: :class:`ElasticConfig` or a spec string.
_slot = Slot(
    lambda value: value
    if isinstance(value, ElasticConfig)
    else parse_elastic_spec(value)
)
install_elastic = _slot.install
uninstall_elastic = _slot.uninstall
current_elastic_config = _slot.current
#: ``with elastic_enabled("on,min=1,max=8") as config: ...``
elastic_enabled = _slot.scoped
