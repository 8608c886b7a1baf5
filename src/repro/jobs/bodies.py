"""Job bodies: what a job actually runs.

A *body* is a callable ``body(spec) -> JobResult`` registered under a
name; jobs reference bodies by name so queue snapshots stay plain JSON
(a resumed queue re-resolves names through this registry).

Two synthetic bodies ship built in:

* ``profile`` — occupies the spec's resources for ``duration_s``
  without computing anything; the workhorse of traffic simulations
  and benchmarks.
* ``fail`` — raises :class:`repro.errors.JobBodyError`; exercises the
  ``failed`` leg of the state machine.

Every row of :data:`repro.tasks.TASKS` registers under both paradigms
(``gotta/script``, ``dice/workflow``, ...), at the row's pinned scale —
so a job running ``dice/script`` measures the same virtual elapsed
time as the seed's direct run, which is what the dormant-invariant
test asserts.  Task
bodies execute on their *own* fresh cluster (a job is a whole pipeline
run, like one Texera workflow execution or one notebook submission);
the measured ``elapsed_s`` then becomes the job's occupancy duration
on the shared service cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import JobBodyError, UnknownJobBody
from repro.jobs.model import JobSpec

__all__ = [
    "GEN_BODIES",
    "TASK_BODIES",
    "JobResult",
    "known_body",
    "register_body",
    "resolve_body",
]


@dataclass
class JobResult:
    """What a body hands back to the service.

    ``duration_s`` is the virtual time the job occupies its node on
    the *service* cluster; ``run`` carries a :class:`repro.tasks.base.TaskRun`
    for task bodies; ``value`` is an arbitrary payload for ad-hoc
    bodies.
    """

    duration_s: float
    run: Any = None
    value: Any = None


#: name -> body callable.
_BODIES: Dict[str, Callable[[JobSpec], JobResult]] = {}


def register_body(
    name: str, fn: Optional[Callable[[JobSpec], JobResult]] = None
):
    """Register ``fn`` as the body named ``name`` (also a decorator).

    >>> @register_body("noop")
    ... def noop(spec):
    ...     return JobResult(duration_s=spec.duration_s)
    """
    def install(fn: Callable[[JobSpec], JobResult]):
        _BODIES[name] = fn
        return fn

    if fn is not None:
        return install(fn)
    return install


def known_body(name: str) -> bool:
    """Whether a ``--jobs`` spec may name ``name``: a registered body, or
    ``gen`` (traffic draws a ``gen/<family>/<paradigm>`` body per job)."""
    return name == "gen" or name in _BODIES


def resolve_body(name: str) -> Callable[[JobSpec], JobResult]:
    """Look a body up by name; raises :class:`UnknownJobBody`."""
    try:
        return _BODIES[name]
    except KeyError:
        raise UnknownJobBody(
            f"no job body named {name!r}; have {sorted(_BODIES)}"
        ) from None


# -- built-in synthetic bodies --------------------------------------------


@register_body("profile")
def _profile(spec: JobSpec) -> JobResult:
    """Occupy the spec's resources for its duration; compute nothing."""
    return JobResult(duration_s=spec.duration_s)


@register_body("fail")
def _fail(spec: JobSpec) -> JobResult:
    """Deterministically fail (state-machine and telemetry exercise)."""
    raise JobBodyError(f"body 'fail' failed deliberately (tenant {spec.tenant})")


# -- paper-task bodies ------------------------------------------------------

#: One body per :data:`repro.tasks.TASKS` row and paradigm, spelled out
#: so that importing repro.jobs never drags the task/dataset stack in
#: for profile-only traffic runs (``tests/tasks/test_table.py`` holds
#: the two in step).
TASK_BODIES = tuple(
    f"{task}/{paradigm}"
    for task in ("gotta", "dice", "kge", "wef")
    for paradigm in ("script", "workflow")
)


def _make_task_body(task: str, paradigm: str):
    def body(spec: JobSpec) -> JobResult:
        from repro.tasks import TASKS

        row = TASKS[task]
        run = row.run(paradigm, row.dataset(*row.pinned))
        return JobResult(duration_s=run.elapsed_s, run=run)

    body.__name__ = f"body_{task}_{paradigm}"
    return body


for _task_name in TASK_BODIES:
    register_body(_task_name, _make_task_body(*_task_name.split("/")))


# -- generated-family bodies (repro.gen) ------------------------------------

#: The generated task families (:mod:`repro.gen.families`) under both
#: paradigms.  Like the paper-task bodies, each runs on its own fresh
#: cluster and occupies the service cluster for its measured elapsed
#: time.  ``repro.gen`` is imported lazily inside the body, so traffic
#: runs that never draw a gen body never load the generator.
GEN_BODIES = tuple(
    f"gen/{family}/{paradigm}"
    for family in ("stream", "smallsteps", "raster")
    for paradigm in ("workflow", "script")
)


def _make_gen_body(family: str, paradigm: str):
    def body(spec: JobSpec) -> JobResult:
        from repro.gen import run_family

        run = run_family(family, paradigm=paradigm)
        return JobResult(duration_s=run.elapsed_s, value=run)

    body.__name__ = f"body_gen_{family}_{paradigm}"
    return body


for _gen_name in GEN_BODIES:
    _, _gen_family, _gen_paradigm = _gen_name.split("/")
    register_body(_gen_name, _make_gen_body(_gen_family, _gen_paradigm))
