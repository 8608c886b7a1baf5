"""Calibrated cost-model constants — the single source of truth.

Every virtual-time charge in the simulated cluster, the Ray-like script
runtime and the Texera-like workflow engine is computed from the
constants defined here.  Keeping them in one module makes the
calibration auditable: EXPERIMENTS.md documents which constants were
fitted against which numbers reported in the paper.

Units
-----
* time: virtual seconds
* data: bytes
* compute: FLOPs (floating-point operations)

The hardware profile mirrors the paper's testbed (Section IV-A): two
four-machine GCP clusters, each VM with 8 vCPUs and 64 GB RAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

GIB = 1024**3
MIB = 1024**2
KIB = 1024


@dataclass(frozen=True)
class MachineConfig:
    """One GCP VM from the paper's testbed."""

    num_cpus: int = 8
    ram_bytes: int = 64 * GIB
    #: Effective per-core throughput for model compute.  The absolute
    #: value is a calibration constant; only ratios between runtimes and
    #: between models matter for the reproduced shapes.
    flops_per_core_per_s: float = 2.0e9


@dataclass(frozen=True)
class NetworkConfig:
    """Intra-cluster network (GCP VMs in one zone)."""

    latency_s: float = 5.0e-4
    bandwidth_bytes_per_s: float = 1.25e9  # ~10 Gbit/s

    def transfer_time(self, nbytes: int) -> float:
        """Time to move ``nbytes`` between two distinct nodes."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class SerializationConfig:
    """Costs of encoding/decoding payloads at runtime boundaries.

    The paper (Section III-D, "Runtime overhead") attributes workflow
    overhead to serialization between operators — especially across
    language boundaries (Python <-> Scala via Arrow-like encoding) —
    while a plain Python script pays (almost) nothing between steps.
    """

    #: Fixed per-call overhead of invoking a codec.
    base_s: float = 2.0e-5
    #: Throughput of same-language (Python pickle-like) encoding.
    python_bytes_per_s: float = 1.2e9
    #: Throughput of JVM-side (Scala/Java) encoding.
    jvm_bytes_per_s: float = 2.4e9
    #: Throughput of the cross-language (Arrow-like) bridge.
    cross_language_bytes_per_s: float = 0.8e9
    #: Per-tuple re-boxing cost between Python and JVM object models;
    #: this is why a mixed-language workflow's edge overhead grows with
    #: data size (Table I's vanishing Scala advantage).
    cross_language_per_tuple_s: float = 2.5e-4


@dataclass(frozen=True)
class ObjectStoreConfig:
    """Ray plasma-like shared object store (Section IV-E, GOTTA).

    The paper observes that Ray "required uploading large objects such
    as models into an object store, which required a lot of memory and
    added execution time for each access".  ``put`` pays a full
    serialize + copy; every ``get`` pays a mapping + deserialize cost
    proportional to object size (this is what penalises the 1.59 GB
    GOTTA model far more than the 375 MB KGE model).
    """

    put_base_s: float = 1.0e-3
    #: Uploading into the store is slow (serialize + copy + seal); this
    #: is the paper's "uploading large objects such as models into an
    #: object store ... added execution time" (Section IV-E).
    put_bytes_per_s: float = 4.0e7
    get_base_s: float = 5.0e-4
    #: Per-access cost of mapping + validating a stored object.
    get_bytes_per_s: float = 3.0e8

    def put_time(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError(f"negative object size: {nbytes}")
        return self.put_base_s + nbytes / self.put_bytes_per_s

    def get_time(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError(f"negative object size: {nbytes}")
        return self.get_base_s + nbytes / self.get_bytes_per_s


@dataclass(frozen=True)
class RayxConfig:
    """Script-paradigm runtime knobs (paper Section IV-A)."""

    #: Effective cores PyTorch may use inside one Ray task.  The paper
    #: set Ray's num_cpus to 1 per worker for the fair one-worker
    #: comparison; Ray then pinned PyTorch to 1 CPU.
    torch_cores_per_task: int = 1
    #: Fixed cost of launching a remote task (scheduling + dispatch).
    task_dispatch_s: float = 2.0e-3
    #: Driver/cluster startup charged once per script run.
    startup_s: float = 2.0
    #: Recovery knobs (only consulted when a fault schedule is active).
    #: Retries per task on an injected (transient) fault before the
    #: failure propagates to the driver, Ray's ``max_retries`` analogue.
    max_task_retries: int = 5
    #: First retry waits this long; later retries multiply it.
    retry_backoff_base_s: float = 0.5
    retry_backoff_multiplier: float = 2.0


@dataclass(frozen=True)
class WorkflowConfig:
    """Workflow-paradigm engine knobs."""

    #: Controller deploy/initialize cost charged once per execution.
    startup_s: float = 4.5
    #: Additional per-operator deployment cost.
    operator_deploy_s: float = 0.12
    #: Tuple batch size on an operator's output channels unless the
    #: operator declares its own ``output_batch_size`` (how this model
    #: gives the paper's "Texera tunes batching", Section III-B; see
    #: ``docs/cost_model.md``).
    default_batch_size: int = 64
    #: Channel capacity in batches (bounds in-flight data; gives
    #: back-pressure).
    channel_capacity_batches: int = 4
    #: Per-batch fixed handling cost at each channel endpoint.
    batch_handling_s: float = 1.0e-4
    #: Texera does not pin frameworks: operators may use up to this
    #: many cores for model compute (paper Section IV-A).
    torch_cores_per_operator: int = 8
    #: Intra-operator parallel efficiency for model compute (Amdahl-ish
    #: discount when using multiple cores inside one operator).
    multicore_efficiency: float = 0.285
    #: Recovery knobs (only consulted when a fault schedule is active).
    #: Cost of snapshotting an operator instance's state at an epoch
    #: boundary (one checkpoint per consumed batch).
    checkpoint_s: float = 2.0e-3
    #: Cost of restarting a crashed instance from its last checkpoint
    #: (re-deploy + state restore) before the epoch replays.
    operator_restart_s: float = 0.25


@dataclass(frozen=True)
class LanguageProfile:
    """Per-tuple execution efficiency of an operator runtime language.

    ``tuple_overhead_s`` is the fixed interpreter cost per tuple;
    ``relative_speed`` scales an operator's declared per-tuple work
    (Scala executes the same relational work faster than Python —
    Table I of the paper).
    """

    name: str
    tuple_overhead_s: float
    relative_speed: float


# Per-tuple interpreter overhead: Python workflow operators cross the
# engine<->interpreter (Arrow-like) bridge per tuple, which is orders of
# magnitude costlier than JVM-native operator dispatch.  This constant
# is what makes the workflow KGE implementation ~30% slower than the
# pandas-based script (paper Fig 13c) while leaving flop-dominated
# tasks (WEF) unaffected.
PYTHON_PROFILE = LanguageProfile("python", tuple_overhead_s=2.0e-4, relative_speed=1.0)
SCALA_PROFILE = LanguageProfile("scala", tuple_overhead_s=2.0e-5, relative_speed=6.0)
JAVA_PROFILE = LanguageProfile("java", tuple_overhead_s=2.5e-5, relative_speed=5.0)

LANGUAGE_PROFILES: Dict[str, LanguageProfile] = {
    "python": PYTHON_PROFILE,
    "scala": SCALA_PROFILE,
    "java": JAVA_PROFILE,
}


@dataclass(frozen=True)
class ModelConfig:
    """Sizes and compute costs of the paper's three model families.

    ``bytes`` values come straight from the paper (Section IV-E): the
    GOTTA BART model is 1.59 GB and the KGE model 375 MB.  FLOP costs
    are calibration constants chosen so the simulated per-item compute
    matches the paper's measured per-item times.
    """

    # WEF: four BERT binary classifiers, fine-tuned.
    bert_bytes: int = 440 * MIB
    bert_flops_per_token_forward: float = 3.1e7
    bert_train_backward_multiplier: float = 2.0
    # GOTTA: BART generative QA.
    bart_bytes: int = int(1.59 * GIB)
    bart_flops_per_token_forward: float = 4.75e8
    # KGE: TransE-style embedding model.
    kge_bytes: int = 375 * MIB
    kge_flops_per_score: float = 2.0e3
    #: Cold-load rate from the testbed's 100 GB HDD; loading the
    #: 1.59 GB GOTTA model from disk is a visible fixed cost in both
    #: paradigms.
    disk_read_bytes_per_s: float = 100 * MIB

    def load_seconds(self, nbytes: int) -> float:
        """Disk-load time for a model of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"negative model size: {nbytes}")
        return nbytes / self.disk_read_bytes_per_s


@dataclass(frozen=True)
class MemoryConfig:
    """Per-node memory-pressure policy (``repro.mem``).

    With the defaults (``enabled=False``, no RAM override) the manager
    is completely dormant: every allocation takes the seed's direct
    ``Node.allocate_ram`` path and timings stay bit-identical (pinned
    by ``tests/obs/test_timing_regression.py``).  Enabling the policy turns
    hard :class:`repro.errors.InsufficientResources` failures into LRU
    spill-to-disk plus FIFO admission backpressure, modelled on Ray's
    object-spilling and plasma-store admission control.

    Watermarks are fractions of a node's RAM ceiling: above
    ``spill_watermark`` an admission spills least-recently-used
    replicas to disk until usage drops back under it; an allocation
    that still cannot fit under ``admission_watermark`` blocks in a
    FIFO queue until RAM is freed.  An object larger than the admission
    watermark (but not larger than the node) may use the full ceiling —
    otherwise the 1.59 GB GOTTA model could never be admitted on a
    shrunken node.
    """

    #: Master switch for spilling + backpressure.  Off by default so
    #: calibrated experiment timings stay exactly reproducible.
    enabled: bool = False
    #: Spill LRU replicas down toward this fraction of the RAM ceiling.
    spill_watermark: float = 0.80
    #: Block (rather than spill further) above this fraction.
    admission_watermark: float = 0.95
    #: Spill device bandwidth — the testbed's 100 GB HDD, matching
    #: ``ModelConfig.disk_read_bytes_per_s``.
    spill_write_bytes_per_s: float = 100 * MIB
    spill_read_bytes_per_s: float = 100 * MIB
    #: Fixed per-spill/restore cost (file create + seal).
    spill_base_s: float = 2.0e-3
    #: Override every node's RAM ceiling (bytes).  Applied even when
    #: the policy is disabled — this is the knob that shrinks the
    #: testbed so the seed code path visibly dies while the spilling
    #: path completes (``python -m repro memory``).
    node_ram_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.spill_watermark <= 1.0:
            raise ValueError(
                f"spill_watermark must be in (0, 1], got {self.spill_watermark}"
            )
        if not 0.0 < self.admission_watermark <= 1.0:
            raise ValueError(
                "admission_watermark must be in (0, 1], got "
                f"{self.admission_watermark}"
            )
        if self.spill_watermark > self.admission_watermark:
            raise ValueError(
                f"spill_watermark ({self.spill_watermark}) must not exceed "
                f"admission_watermark ({self.admission_watermark})"
            )
        if self.spill_write_bytes_per_s <= 0 or self.spill_read_bytes_per_s <= 0:
            raise ValueError("spill bandwidths must be positive")
        if self.spill_base_s < 0:
            raise ValueError(
                f"spill_base_s must be >= 0, got {self.spill_base_s}"
            )
        if self.node_ram_bytes is not None and self.node_ram_bytes <= 0:
            raise ValueError(
                f"node_ram_bytes must be positive, got {self.node_ram_bytes}"
            )

    def spill_write_time(self, nbytes: int) -> float:
        """Virtual seconds to spill ``nbytes`` to disk."""
        if nbytes < 0:
            raise ValueError(f"negative spill size: {nbytes}")
        return self.spill_base_s + nbytes / self.spill_write_bytes_per_s

    def spill_read_time(self, nbytes: int) -> float:
        """Virtual seconds to restore ``nbytes`` from disk."""
        if nbytes < 0:
            raise ValueError(f"negative restore size: {nbytes}")
        return self.spill_base_s + nbytes / self.spill_read_bytes_per_s


@dataclass(frozen=True)
class CacheConfig:
    """Lineage-keyed result caching (``repro.cache``).

    With the default (``enabled=False``) the cache is completely
    dormant: no fingerprints are consulted, no lookup costs are
    charged, and timings stay bit-identical to the seed (pinned by
    ``tests/obs/test_timing_regression.py``).  When enabled, every rayx
    task submission and workflow operator batch is fingerprinted from
    the function identity, the lineage of its ``ObjectRef`` arguments
    and ``epoch``; a repeat execution returns the memoized result at
    ``lookup_s`` virtual cost instead of re-running the producer.

    The cache stores only fingerprint metadata — results are always
    rebuilt by the (virtually free) real Python computation — so a hit
    is structurally guaranteed to yield the same values as a miss.
    """

    #: Master switch.  Off by default so calibrated experiment timings
    #: stay exactly reproducible.
    enabled: bool = False
    #: Per-node capacity for cached entries in bytes; ``None`` means
    #: unbounded.  Exceeding it evicts least-recently-hit entries.
    capacity_bytes: Optional[int] = None
    #: Virtual cost of one cache lookup that hits (index probe +
    #: fingerprint comparison).  Misses charge nothing, so an
    #: enabled-but-cold run stays bit-identical to the seed.
    lookup_s: float = 1.0e-4
    #: Generation counter mixed into every fingerprint.  Bumping it
    #: invalidates all previously cached entries at zero cost.
    epoch: int = 0

    def __post_init__(self) -> None:
        if self.capacity_bytes is not None and self.capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {self.capacity_bytes}"
            )
        if self.lookup_s < 0:
            raise ValueError(f"lookup_s must be >= 0, got {self.lookup_s}")
        if self.epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {self.epoch}")


#: Most arrivals a jobs config may expect (peak rate x horizon); the
#: traffic generator draws every candidate, so a larger spec would not end.
MAX_EXPECTED_ARRIVALS = 1_000_000


@dataclass(frozen=True)
class JobsConfig:
    """Multi-tenant job service + traffic generator (``repro.jobs``).

    With the default (``enabled=False``) the subsystem is completely
    dormant: nothing in the engines consults it, and a single job
    submitted by one tenant executes its body exactly like a direct
    engine run — bit-identical outputs and virtual timings (pinned by
    ``tests/jobs/test_timing_pin.py``).  Enabling it (CLI ``--jobs`` /
    ``repro jobs SPEC``) drives a seeded open-loop traffic generator
    through the :class:`repro.jobs.JobService` control plane.

    Traffic shape: arrivals are a non-homogeneous Poisson process with
    instantaneous rate ``rate_per_s`` modulated by a diurnal sine
    (amplitude ``diurnal`` over ``diurnal_period_s``) and periodic
    burst windows (the first ``burst_duty`` fraction of every
    ``burst_period_s`` multiplies the rate by ``1 + burst``).
    """

    #: Master switch consulted by the CLI; the service itself runs
    #: whenever it is constructed explicitly.
    enabled: bool = False
    #: Seed for the open-loop traffic generator.
    seed: int = 0
    #: Mean arrival rate in jobs per virtual second.
    rate_per_s: float = 10.0
    #: Arrival-generation horizon in virtual seconds.
    horizon_s: float = 60.0
    #: Tenant population; generated jobs draw tenants uniformly.
    tenants: int = 4
    #: Burst amplitude: inside a burst window the rate is ``x (1+burst)``.
    burst: float = 0.0
    #: Burst window period and duty cycle (fraction of the period).
    burst_period_s: float = 300.0
    burst_duty: float = 0.1
    #: Diurnal amplitude in [0, 1]: rate ``x (1 + diurnal*sin(2pi t/T))``.
    diurnal: float = 0.0
    diurnal_period_s: float = 86400.0
    #: Admission ordering across tenants: ``fifo`` or ``drf``
    #: (weighted hierarchical dominant-resource fairness).
    policy: str = "drf"
    #: Placement policy (``repro.sched``) used to land admitted jobs on
    #: cluster nodes; ``drf`` picks the node with the lowest dominant
    #: resource share after placement.
    placement: str = "drf"
    #: Per-tenant quotas; ``None`` means unlimited.
    quota_running: Optional[int] = None
    quota_cpus: Optional[int] = None
    quota_ram_bytes: Optional[int] = None
    #: Queue capacity; submissions beyond it are rejected (open-loop
    #: traffic counts them as ``jobs.rejected``).  ``None`` = unbounded.
    max_queue: Optional[int] = None
    #: Default per-job resource demand and profile duration.
    cpus: int = 1
    ram_bytes: int = 1 * GIB
    duration_s: float = 1.0
    #: Default job body (see :mod:`repro.jobs.bodies`).
    body: str = "profile"
    #: Admission backpressure watermark as a fraction of each node's
    #: RAM ceiling; ``None`` reuses the resolved
    #: :class:`MemoryConfig.admission_watermark` (``repro.mem``).
    admission_watermark: Optional[float] = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be positive, got {self.rate_per_s}")
        if self.horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive, got {self.horizon_s}")
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")
        if self.burst < 0:
            raise ValueError(f"burst must be >= 0, got {self.burst}")
        if self.burst_period_s <= 0 or not 0.0 < self.burst_duty <= 1.0:
            raise ValueError(
                f"burst window needs period > 0 and duty in (0, 1], got "
                f"period={self.burst_period_s}, duty={self.burst_duty}"
            )
        if not 0.0 <= self.diurnal <= 1.0:
            raise ValueError(f"diurnal must be in [0, 1], got {self.diurnal}")
        if self.diurnal_period_s <= 0:
            raise ValueError(
                f"diurnal_period_s must be positive, got {self.diurnal_period_s}"
            )
        expected = self.peak_rate_per_s * self.horizon_s
        if expected > MAX_EXPECTED_ARRIVALS:
            raise ValueError(
                f"expected arrivals (peak rate x horizon) must be <= "
                f"{MAX_EXPECTED_ARRIVALS}, got {expected:.3g}"
            )
        if self.policy not in ("fifo", "drf"):
            raise ValueError(
                f"policy must be 'fifo' or 'drf', got {self.policy!r}"
            )
        for name in ("quota_running", "quota_cpus", "quota_ram_bytes", "max_queue"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.cpus < 1:
            raise ValueError(f"cpus must be >= 1, got {self.cpus}")
        if self.ram_bytes < 0:
            raise ValueError(f"ram_bytes must be >= 0, got {self.ram_bytes}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.admission_watermark is not None and not (
            0.0 < self.admission_watermark <= 1.0
        ):
            raise ValueError(
                "admission_watermark must be in (0, 1], got "
                f"{self.admission_watermark}"
            )

    @property
    def peak_rate_per_s(self) -> float:
        """Upper bound on the instantaneous arrival rate."""
        return self.rate_per_s * (1.0 + self.diurnal) * (1.0 + self.burst)


@dataclass(frozen=True)
class ElasticConfig:
    """Dynamic cluster membership + autoscaler policy (``repro.elastic``).

    With the default (``enabled=False``) the subsystem is completely
    dormant: the node set stays exactly as built and every direct
    engine run is bit-identical to the seed timings (pinned by
    ``tests/obs/test_timing_regression.py``).  Enabling it attaches an
    :class:`repro.elastic.Autoscaler` process to the job service that
    watches the quantities behind the ``repro.obs`` gauges — queue
    depth (``jobs.queue_depth``), reserved-vCPU load
    (``sched.node_load``) and RAM high water (``mem.high_water``) —
    and provisions or drains workers accordingly.
    """

    #: Master switch consulted by the CLI and :class:`repro.jobs.JobService`.
    enabled: bool = False
    #: Fleet size bounds (workers; the controller is never scaled).
    min_nodes: int = 1
    max_nodes: int = 8
    #: Gauge-evaluation cadence of the autoscaler process.
    interval_s: float = 1.0
    #: Virtual boot latency paid before a provisioned node joins.
    provision_s: float = 10.0
    #: Scale up when queued jobs per (active + provisioning) worker
    #: exceed this ...
    up_queue_per_node: float = 4.0
    #: ... or when the queue is non-empty and mean reserved-vCPU load
    #: across active workers reaches this fraction ...
    up_load: float = 0.90
    #: ... or when the queue is non-empty and some node's RAM high
    #: water exceeds this fraction of its ceiling.
    up_ram: float = 0.90
    #: A node becomes a scale-down victim after being idle this long.
    idle_s: float = 3.0
    #: Cooldown after a scale-up before scale-down resumes.
    cooldown_s: float = 5.0
    #: Nodes provisioned per scale-up decision.
    step: int = 1
    #: Machine shape provisioned nodes use — a name from
    #: ``repro.elastic.MACHINE_SHAPES`` (default/fast/slow/highmem).
    shape: str = "default"
    #: Drain nodes on scale-down (migrate replicas) rather than
    #: crash-evicting them through the node-kill machinery.
    drain: bool = True

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ValueError(f"min_nodes must be >= 1, got {self.min_nodes}")
        if self.max_nodes < self.min_nodes:
            raise ValueError(
                f"max_nodes must be >= min_nodes, got "
                f"{self.max_nodes} < {self.min_nodes}"
            )
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {self.interval_s}")
        if self.provision_s < 0:
            raise ValueError(f"provision_s must be >= 0, got {self.provision_s}")
        if self.up_queue_per_node <= 0:
            raise ValueError(
                f"up_queue_per_node must be positive, got {self.up_queue_per_node}"
            )
        for name in ("up_load", "up_ram"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if self.idle_s < 0:
            raise ValueError(f"idle_s must be >= 0, got {self.idle_s}")
        if self.cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {self.cooldown_s}")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if not self.shape:
            raise ValueError("shape must be a non-empty shape name")


@dataclass(frozen=True)
class ClusterTopologyConfig:
    """The paper's deployment: 1 coordinator + 4 worker machines."""

    num_workers: int = 4
    machine: MachineConfig = field(default_factory=MachineConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)


@dataclass(frozen=True)
class ReproConfig:
    """Top-level bundle handed to engines and tasks."""

    topology: ClusterTopologyConfig = field(default_factory=ClusterTopologyConfig)
    serialization: SerializationConfig = field(default_factory=SerializationConfig)
    object_store: ObjectStoreConfig = field(default_factory=ObjectStoreConfig)
    rayx: RayxConfig = field(default_factory=RayxConfig)
    workflow: WorkflowConfig = field(default_factory=WorkflowConfig)
    models: ModelConfig = field(default_factory=ModelConfig)


DEFAULT_CONFIG = ReproConfig()


def default_config() -> ReproConfig:
    """Return the calibrated default configuration.

    The object is frozen; experiments that need variations should build
    a new :class:`ReproConfig` with ``dataclasses.replace``.
    """
    return DEFAULT_CONFIG
