"""Every ``repro.errors`` exception survives a pickle round trip.

A CLI pool worker sends an experiment's exception back to the parent
pickled; one that cannot be rebuilt there kills the pool's result
thread and the parent waits forever.
"""

import inspect
import pickle

import pytest

from repro import errors

CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, BaseException)
    and cls.__module__ == errors.__name__
]


def _instance(cls):
    if cls.__init__ is Exception.__init__:
        return cls("something failed")
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return cls(*(f"<{p.name}>" for p in params if p.default is p.empty))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_round_trip_keeps_type_args_and_text(cls):
    exc = _instance(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert back.args == exc.args
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def test_the_module_defines_the_classes_the_test_walks():
    assert errors.ReproError in CLASSES and errors.OperatorError in CLASSES
    assert len(CLASSES) > 40


@pytest.mark.parametrize("exc", [
    errors.OperatorError("op", "msg: with a colon"),
    errors.InjectedFault("node down", kind="node"),
])
def test_attributes_beyond_args_survive(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert (type(back), back.args, vars(back)) == (type(exc), exc.args, vars(exc))
