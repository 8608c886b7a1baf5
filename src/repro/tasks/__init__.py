"""The paper's four data science tasks, each under both paradigms.

:data:`TASKS` (``repro.tasks.table``) is the one table of them — name,
stage, dataset generator, the two runners and their parallelism knob,
pinned scale — and ``TASKS[name].run(paradigm, data, workers=...)`` the
one way the experiments, job bodies and timing pins run a task without
naming it.  The plain entry points stay public:

"""

from repro.tasks.base import PARADIGM_SCRIPT, PARADIGM_WORKFLOW, TaskRun, fresh_cluster

# After base: the runners the table wraps import repro.tasks.base.
from repro.tasks.table import TASKS, PaperTask

__all__ = [
    "PARADIGM_SCRIPT",
    "PARADIGM_WORKFLOW",
    "TASKS",
    "PaperTask",
    "TaskRun",
    "fresh_cluster",
]

__doc__ = (__doc__ or "") + "\n".join(
    f"{task.name.upper():<7}{task.stage:<22}"
    + ", ".join(f":func:`{runner.__module__}.{runner.__name__}`"
                for runner, _ in task.sides.values())
    for task in TASKS.values()
)
