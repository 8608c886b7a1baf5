"""Declarative predicates and projections over tuples.

Workflow operators take these objects as *configuration* (the analogue
of what a Texera user types into an operator's property panel), so the
same predicate is reusable from the script implementations — one task
logic, two paradigms.

Every expression is callable on a :class:`repro.relational.Tuple` and
carries a human-readable :meth:`describe` for progress/debug output.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from repro.relational.tup import Tuple

__all__ = [
    "Predicate",
    "column_equals",
    "column_not_equals",
    "column_in",
    "column_not_in",
    "column_greater",
    "column_less",
    "column_is_not_null",
    "all_of",
    "any_of",
    "negate",
    "udf_predicate",
]


class Predicate:
    """A boolean function of a tuple with a description.

    ``columns`` optionally names the input columns the predicate reads
    (None = unknown, e.g. an arbitrary UDF).  Evaluation never reads
    it; it stays because a filter's cache fingerprint hashes its
    predicate's attributes, so dropping it would change every
    filter's cache key.
    """

    def __init__(
        self,
        fn: Callable[[Tuple], bool],
        description: str,
        columns: Optional[Iterable[str]] = None,
    ) -> None:
        self._fn = fn
        self.description = description
        self.columns = frozenset(columns) if columns is not None else None

    def __call__(self, row: Tuple) -> bool:
        return bool(self._fn(row))

    def describe(self) -> str:
        return self.description

    def __repr__(self) -> str:
        return f"Predicate({self.description})"


def column_equals(name: str, value: Any) -> Predicate:
    """``row[name] == value``"""
    return Predicate(lambda row: row[name] == value, f"{name} == {value!r}", [name])


def column_not_equals(name: str, value: Any) -> Predicate:
    """``row[name] != value``"""
    return Predicate(lambda row: row[name] != value, f"{name} != {value!r}", [name])


def column_in(name: str, values: Iterable[Any]) -> Predicate:
    """``row[name] in values`` (values are frozen into a set)."""
    frozen = frozenset(values)
    return Predicate(
        lambda row: row[name] in frozen, f"{name} in {sorted(frozen)!r}", [name]
    )


def column_not_in(name: str, values: Iterable[Any]) -> Predicate:
    """``row[name] not in values``"""
    frozen = frozenset(values)
    return Predicate(
        lambda row: row[name] not in frozen,
        f"{name} not in {sorted(frozen)!r}",
        [name],
    )


def column_greater(name: str, value: Any) -> Predicate:
    """``row[name] > value``"""
    return Predicate(lambda row: row[name] > value, f"{name} > {value!r}", [name])


def column_less(name: str, value: Any) -> Predicate:
    """``row[name] < value``"""
    return Predicate(lambda row: row[name] < value, f"{name} < {value!r}", [name])


def column_is_not_null(name: str) -> Predicate:
    """``row[name] is not None``"""
    return Predicate(
        lambda row: row[name] is not None, f"{name} is not null", [name]
    )


def _merged_columns(predicates: Sequence[Predicate]):
    """Union of known column sets; None as soon as any part is unknown."""
    merged = set()
    for predicate in predicates:
        if predicate.columns is None:
            return None
        merged |= predicate.columns
    return merged


def all_of(predicates: Sequence[Predicate]) -> Predicate:
    """Conjunction of predicates."""
    preds = list(predicates)
    description = " and ".join(f"({p.describe()})" for p in preds) or "true"
    return Predicate(
        lambda row: all(p(row) for p in preds), description, _merged_columns(preds)
    )


def any_of(predicates: Sequence[Predicate]) -> Predicate:
    """Disjunction of predicates."""
    preds = list(predicates)
    description = " or ".join(f"({p.describe()})" for p in preds) or "false"
    return Predicate(
        lambda row: any(p(row) for p in preds), description, _merged_columns(preds)
    )


def negate(predicate: Predicate) -> Predicate:
    """Logical negation."""
    return Predicate(
        lambda row: not predicate(row),
        f"not ({predicate.describe()})",
        predicate.columns,
    )


def udf_predicate(fn: Callable[[Tuple], bool], description: str = "udf") -> Predicate:
    """Wrap an arbitrary boolean function (the UDF escape hatch)."""
    return Predicate(fn, description)
