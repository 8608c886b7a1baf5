"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at the public-API boundary.  Subsystems
define narrower classes below so tests (and users) can assert on the
precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event kernel."""


class EventAlreadyTriggered(SimulationError):
    """An event was succeeded or failed more than once."""


class EmptySchedule(SimulationError):
    """``Environment.run`` was asked to advance but no events remain."""


class ProcessFailed(SimulationError):
    """A simulation process terminated with an unhandled exception."""


class ClusterError(ReproError):
    """Base class for cluster-topology errors."""


class UnknownNode(ClusterError):
    """A node name was referenced that is not part of the cluster."""


class InsufficientResources(ClusterError):
    """A request asked for more cores/RAM than a node possesses."""


class SchemaError(ReproError):
    """Base class for relational-schema violations."""


class FieldNotFound(SchemaError):
    """A tuple or expression referenced a field absent from the schema."""


class DuplicateField(SchemaError):
    """A schema was constructed with two fields of the same name."""


class TypeMismatch(SchemaError):
    """A tuple value does not conform to its field's declared type."""


class StorageError(ReproError):
    """Base class for dataset file-format errors."""


class AnnotationParseError(StorageError):
    """A BRAT-style annotation line could not be parsed."""


class RayxError(ReproError):
    """Base class for errors raised by the script (Ray-like) runtime."""


class ObjectStoreError(RayxError):
    """An object-store operation failed (missing ref, capacity, ...)."""


class ObjectNotFound(ObjectStoreError):
    """``get`` was called with a ref that was never ``put``."""


class WorkflowError(ReproError):
    """Base class for errors raised by the workflow (Texera-like) engine."""


class InvalidWorkflow(WorkflowError):
    """The workflow DAG failed validation (cycle, dangling port, ...)."""


class WorkflowSpecError(WorkflowError):
    """A JSON workflow spec was malformed (grammar or reference error)."""


class OperatorError(WorkflowError):
    """An operator raised during execution; reported at operator level.

    Mirrors the paper's observation (Section III-A) that the workflow
    paradigm reports error traces *at the operator level*: the exception
    carries the failing operator's id so users can isolate it.
    """

    def __init__(self, operator_id: str, message: str) -> None:
        super().__init__(f"operator '{operator_id}': {message}")
        self.operator_id = operator_id

    def __reduce__(self):
        # ``args`` holds the formatted text, which ``__init__`` cannot
        # take back; a pickle (a CLI pool worker's result) rebuilds it
        # from the two parts.
        message = str(self)[len(f"operator '{self.operator_id}': "):]
        return type(self), (self.operator_id, message), self.__dict__


class FaultError(ReproError):
    """Base class for the deterministic fault-injection subsystem."""


class InjectedFault(FaultError):
    """A failure injected by a :class:`repro.faults.FaultSchedule`.

    Engines treat this as *transient*: the script runtime retries the
    task with exponential backoff, the workflow engine restores the
    operator instance from its last checkpoint.  ``kind`` names the
    fault class (``task``, ``operator``, ``node``, ``replica``).
    """

    def __init__(self, message: str, kind: str = "task") -> None:
        super().__init__(message)
        self.kind = kind


class FaultSpecError(FaultError):
    """A fault-schedule spec string or JSON document was malformed."""


class ReconstructionError(FaultError):
    """An object lost all replicas and has no lineage to rebuild from."""


class MemoryPressureError(ReproError):
    """Base class for the memory-pressure subsystem (``repro.mem``)."""


class MemSpecError(MemoryPressureError):
    """A ``--mem`` policy spec string was malformed."""


class CacheError(ReproError):
    """Base class for the result-caching subsystem (``repro.cache``)."""


class CacheSpecError(CacheError):
    """A ``--cache`` policy spec string was malformed."""


class SchedError(ReproError):
    """Base class for scheduling/placement errors."""


class UnknownPolicy(SchedError):
    """A placement-policy name that is not in the registry."""


class JobsError(ReproError):
    """Base class for the multi-tenant job service (``repro.jobs``)."""


class JobsSpecError(JobsError):
    """A ``--jobs`` spec string was malformed."""


class UnknownJob(JobsError):
    """A job id was referenced that the queue has never seen."""


class UnknownJobBody(JobsError):
    """A job named a body that is not in the registry."""


class InvalidJobTransition(JobsError):
    """A job state transition outside the state machine was attempted."""


class JobQueueFull(JobsError):
    """A submission was rejected because the queue is at capacity."""


class JobBodyError(JobsError):
    """A job body raised; the job moves to the ``failed`` state."""


class GenError(ReproError):
    """Base class for the workload generator (``repro.gen``)."""


class GenSpecError(GenError):
    """A ``repro gen`` spec string or generator knob was malformed."""


class TrafficInvariantError(JobsError):
    """The traffic generator's thinning majorant was violated.

    Raised defensively: the Lewis-Shedler envelope must dominate the
    instantaneous rate everywhere, or arrivals are silently
    under-sampled.  Seeing this error means a rate-shape change broke
    the ``peak_rate`` bound.
    """


class ElasticError(ReproError):
    """Base class for the elastic-membership subsystem (``repro.elastic``)."""


class ElasticSpecError(ElasticError):
    """An ``--elastic`` spec string was malformed."""


class DrainError(ElasticError):
    """A node drain could not quiesce the node or relocate its data."""


class MLError(ReproError):
    """Base class for model/tokenizer/training errors."""


class NotFittedError(MLError):
    """Inference was attempted on a model that has not been trained."""


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""
