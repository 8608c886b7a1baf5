"""Fingerprints must be structural, deterministic and address-free.

The cache's whole correctness story rests on one property: two
submissions fingerprint equal **iff** they would compute the same
thing.  That means re-created lambdas (fresh ``id()``, same code) must
collide, closures over different values must not, and nothing may leak
``repr`` memory addresses or per-interpreter ``hash()`` salt into a
key.
"""

import functools

from repro.cache.fingerprint import combine, fingerprint_function, fingerprint_value
from repro.obs import tracing


def test_combine_is_deterministic_and_order_sensitive():
    assert combine("a", 1, 2.5) == combine("a", 1, 2.5)
    assert combine("a", "b") != combine("b", "a")
    assert combine("ab") != combine("a", "b")  # parts are delimited


def test_atoms_distinguish_type_and_value():
    assert fingerprint_value(1) != fingerprint_value(1.0)
    assert fingerprint_value(True) != fingerprint_value(1)
    assert fingerprint_value("1") != fingerprint_value(1)
    assert fingerprint_value(None) == fingerprint_value(None)


def test_recreated_lambda_fingerprints_equal():
    def make():
        return lambda x: x * 2

    assert make() is not make()
    assert fingerprint_function(make()) == fingerprint_function(make())


def test_closure_values_differentiate():
    def make(n):
        return lambda x: x * n

    assert fingerprint_function(make(2)) == fingerprint_function(make(2))
    assert fingerprint_function(make(2)) != fingerprint_function(make(3))


def test_containers_recurse_into_callables():
    def make(n):
        return [1, {"fn": lambda x: x + n}]

    assert fingerprint_value(make(1)) == fingerprint_value(make(1))
    assert fingerprint_value(make(1)) != fingerprint_value(make(2))


def test_dict_fingerprint_is_insertion_order_insensitive():
    assert fingerprint_value({"a": 1, "b": 2}) == fingerprint_value(
        {"b": 2, "a": 1}
    )


def test_set_fingerprint_is_order_insensitive():
    assert fingerprint_value({3, 1, 2}) == fingerprint_value({2, 3, 1})


def test_sequence_type_matters_but_not_identity():
    assert fingerprint_value([1, 2]) != fingerprint_value((1, 2))
    assert fingerprint_value([1, 2]) == fingerprint_value([1, 2])


def test_partial_fingerprints_by_parts():
    def f(a, b):
        return a + b

    assert fingerprint_function(functools.partial(f, 1)) == fingerprint_function(
        functools.partial(f, 1)
    )
    assert fingerprint_function(functools.partial(f, 1)) != fingerprint_function(
        functools.partial(f, 2)
    )


def test_bound_methods_include_instance_state():
    class Counter:
        def __init__(self, n):
            self.n = n

        def bump(self):
            return self.n + 1

    assert fingerprint_function(Counter(1).bump) == fingerprint_function(
        Counter(1).bump
    )
    assert fingerprint_function(Counter(1).bump) != fingerprint_function(
        Counter(2).bump
    )


class _Unpicklable:
    def __init__(self, n):
        self.n = n
        self.fn = lambda: n  # defeats pickle

    def __reduce__(self):
        raise TypeError("nope")


def test_unpicklable_objects_fingerprint_structurally():
    """No ``repr`` fallback: two equal-state instances at different
    addresses must collide, different state must not."""
    a, b = _Unpicklable(1), _Unpicklable(1)
    assert fingerprint_value(a) == fingerprint_value(b)
    assert fingerprint_value(a) != fingerprint_value(_Unpicklable(2))


def test_fingerprint_never_embeds_memory_addresses():
    value = _Unpicklable(7)
    fp = fingerprint_value(value)
    assert hex(id(value))[2:] not in fp
    assert fp == fingerprint_value(value)


class _SlottedUnpicklable:
    __slots__ = ("n", "tag")

    def __init__(self, n, tag="x"):
        self.n = n
        self.tag = tag

    def __reduce__(self):
        raise TypeError("nope")


class _SlottedChild(_SlottedUnpicklable):
    __slots__ = ("extra",)

    def __init__(self, n, extra):
        super().__init__(n)
        self.extra = extra


def test_slotted_unpicklable_objects_do_not_collide():
    """Regression: the fallback only read ``__dict__``, so every
    ``__slots__`` instance digested to the same "opaque" value and two
    objects with *different* state collided — the cache could then
    serve one submission's result for the other."""
    assert fingerprint_value(_SlottedUnpicklable(1)) != fingerprint_value(
        _SlottedUnpicklable(2)
    )
    assert fingerprint_value(_SlottedUnpicklable(1)) == fingerprint_value(
        _SlottedUnpicklable(1)
    )


def test_slot_state_is_collected_across_the_mro():
    assert fingerprint_value(_SlottedChild(1, "a")) != fingerprint_value(
        _SlottedChild(1, "b")
    )
    assert fingerprint_value(_SlottedChild(1, "a")) != fingerprint_value(
        _SlottedChild(2, "a")
    )
    assert fingerprint_value(_SlottedChild(1, "a")) == fingerprint_value(
        _SlottedChild(1, "a")
    )


def test_unassigned_slot_does_not_break_fingerprinting():
    obj = _SlottedUnpicklable.__new__(_SlottedUnpicklable)
    obj.n = 1  # tag deliberately left unset
    full = _SlottedUnpicklable(1)
    assert fingerprint_value(obj) == fingerprint_value(obj)
    assert fingerprint_value(obj) != fingerprint_value(full)


def test_fallback_counter_emitted_when_traced():
    with tracing() as tracer:
        fingerprint_value(_Unpicklable(1))
        fingerprint_value(_SlottedUnpicklable(1))
    counters = tracer.metrics.counters("cache.fingerprint.fallback")
    assert sum(c.value for c in counters) == 2


def test_no_fallback_counter_for_picklable_values():
    with tracing() as tracer:
        fingerprint_value([1, 2, {"a": 3}])
        fingerprint_function(lambda x: x + 1)
    assert tracer.metrics.counters("cache.fingerprint.fallback") == []


def test_cyclic_structures_terminate():
    loop = []
    loop.append(loop)
    assert fingerprint_value(loop) == fingerprint_value(loop)


def test_deep_nesting_hits_depth_limit_not_recursion_error():
    deep = [1]
    for _ in range(50):
        deep = [deep]
    assert fingerprint_value(deep) == fingerprint_value(deep)


def test_row_fingerprints_do_not_depend_on_sizing():
    from repro.relational import FieldType, Schema, Table, Tuple
    from repro.workflow.engine import _operator_fingerprint
    from repro.workflow.operators import TableSource

    schema = Schema.of(id=FieldType.INT, text=FieldType.STRING)
    row = Tuple(schema, [1, "a"])
    table = Table(schema, [row])
    source = TableSource("scan", table)
    before = (
        fingerprint_value([row]),
        fingerprint_value(table),
        _operator_fingerprint(source, {}),
    )
    row.payload_bytes()
    after = (
        fingerprint_value([row]),
        fingerprint_value(table),
        _operator_fingerprint(source, {}),
    )
    assert after == before
