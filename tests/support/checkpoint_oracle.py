"""The executor checkpoint as it stood before executors declared their state.

Frozen as the oracle for ``OperatorExecutor.snapshot`` / ``restore``:
a checkpoint was a deep copy of the whole executor (its logical
operator and any model included), and a restart replaced the executor
with a fresh deep copy of that checkpoint, so the checkpoint survived
repeated crashes of one batch.
"""

import copy


def snapshot(executor):
    return copy.deepcopy(executor)


def restore(checkpoint):
    """A new executor in the checkpoint's state."""
    return copy.deepcopy(checkpoint)
