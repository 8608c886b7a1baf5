"""Evaluation metrics for the tasks' model outputs."""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "accuracy",
    "precision",
    "recall",
    "f1_score",
    "exact_match",
]


def _check_lengths(truth: Sequence, predictions: Sequence) -> None:
    if len(truth) != len(predictions):
        raise ValueError(
            f"length mismatch: {len(truth)} labels vs {len(predictions)} predictions"
        )
    if not truth:
        raise ValueError("metrics need at least one example")


def accuracy(truth: Sequence[int], predictions: Sequence[int]) -> float:
    """Fraction of exact label matches."""
    _check_lengths(truth, predictions)
    return sum(t == p for t, p in zip(truth, predictions)) / len(truth)


def precision(truth: Sequence[int], predictions: Sequence[int]) -> float:
    """TP / (TP + FP); 0.0 when nothing was predicted positive."""
    _check_lengths(truth, predictions)
    tp = sum(1 for t, p in zip(truth, predictions) if t == 1 and p == 1)
    fp = sum(1 for t, p in zip(truth, predictions) if t == 0 and p == 1)
    return tp / (tp + fp) if (tp + fp) else 0.0


def recall(truth: Sequence[int], predictions: Sequence[int]) -> float:
    """TP / (TP + FN); 0.0 when there are no positives."""
    _check_lengths(truth, predictions)
    tp = sum(1 for t, p in zip(truth, predictions) if t == 1 and p == 1)
    fn = sum(1 for t, p in zip(truth, predictions) if t == 1 and p == 0)
    return tp / (tp + fn) if (tp + fn) else 0.0


def f1_score(truth: Sequence[int], predictions: Sequence[int]) -> float:
    """Harmonic mean of precision and recall."""
    p = precision(truth, predictions)
    r = recall(truth, predictions)
    return 2 * p * r / (p + r) if (p + r) else 0.0


def exact_match(truth: Sequence[str], predictions: Sequence[str]) -> float:
    """QA exact-match rate (case/whitespace-insensitive)."""
    _check_lengths(truth, predictions)
    matches = sum(
        t.strip().lower() == p.strip().lower() for t, p in zip(truth, predictions)
    )
    return matches / len(truth)

