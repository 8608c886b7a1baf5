"""Memory pressure, made survivable: ``repro.mem``.

The paper's GOTTA analysis (Section IV-E) blames the script paradigm's
slowdown on Ray's shared object store, which "required a lot of memory
and added execution time for each access".  The seed modelled RAM as a
hard-fail high-water counter — a plan that did not fit raised
:class:`repro.errors.InsufficientResources` — so memory pressure was
the one paper phenomenon the simulation could not reproduce.  This
package adds the missing layer:

* :class:`MemoryManager` — per-node admission control with LRU
  spill-to-disk for object-store replicas and FIFO blocking
  backpressure for everything else (workflow channel buffers included);
* :class:`repro.config.MemoryConfig` — watermarks, spill bandwidth and
  a per-node RAM override, resolvable per cluster;
* an ``oom`` fault kind (``repro.faults``) clamping a node's RAM at a
  virtual timestamp.

Selecting a policy follows the tracer/injector/scheduler pattern:

>>> from repro.mem import memory_managed
>>> with memory_managed("on,ram=2GiB"):
...     run = run_gotta_script(fresh_cluster(), paragraphs)

or for one cluster via ``build_cluster(env, memory=MemoryConfig(...))``,
or from the command line with ``python -m repro fig13d --mem on,ram=2GiB``
(``python -m repro mem`` prints the spec grammar).  The explicit
argument beats the installed policy, which beats the dormant default.

By default the manager is dormant and every timing stays
bit-identical to the seed — pinned by ``tests/obs/test_timing_regression.py``
the same way ``repro.obs``/``repro.faults``/``repro.sched`` are.
"""

from __future__ import annotations

from repro.config import MemoryConfig
from repro.layer import Slot
from repro.mem.manager import MemoryManager
from repro.mem.spec import parse_mem_spec

__all__ = [
    "MemoryConfig",
    "MemoryManager",
    "parse_mem_spec",
    "install_memory",
    "uninstall_memory",
    "current_memory_config",
    "memory_managed",
]

#: The globally installed policy, if any: the default for clusters
#: built afterwards.  Takes a :class:`MemoryConfig` or a spec string.
_slot = Slot(
    lambda value: value if isinstance(value, MemoryConfig) else parse_mem_spec(value)
)
install_memory = _slot.install
uninstall_memory = _slot.uninstall
current_memory_config = _slot.current
#: ``with memory_managed("on,ram=2GiB") as policy: ...``
memory_managed = _slot.scoped
