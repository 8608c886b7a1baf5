"""Shared utilities for synthetic corpus generation.

All generators are seeded and deterministic: the same seed yields the
same corpus bytes, so simulated timings and model outputs are
reproducible run-to-run.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["SyllableNameGenerator", "pick", "pick_many"]

_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z"]
_NUCLEI = ["a", "e", "i", "o", "u", "ae", "ia", "or"]
_CODAS = ["", "n", "r", "s", "l", "x", "th"]


class SyllableNameGenerator:
    """Generate pronounceable, distinctive invented words.

    Used where the corpus needs *unique* answer/entity tokens that
    cannot collide with template vocabulary (FSQA answers, product
    names) — this is what lets tests assert exact-match retrieval.
    """

    def __init__(self, rng: np.random.RandomState) -> None:
        self._rng = rng
        self._seen = set()

    def word(self, syllables: int = 3) -> str:
        """A fresh invented word, unique within this generator."""
        for _ in range(1000):
            parts = []
            for _ in range(syllables):
                parts.append(
                    _ONSETS[self._rng.randint(len(_ONSETS))]
                    + _NUCLEI[self._rng.randint(len(_NUCLEI))]
                    + _CODAS[self._rng.randint(len(_CODAS))]
                )
            candidate = "".join(parts)
            if candidate not in self._seen:
                self._seen.add(candidate)
                return candidate
        raise RuntimeError("name space exhausted; increase syllables")


def pick(rng: np.random.RandomState, pool: Sequence[str]) -> str:
    """Uniformly choose one element."""
    return pool[rng.randint(len(pool))]


def pick_many(
    rng: np.random.RandomState, pool: Sequence[str], count: int
) -> List[str]:
    """Choose ``count`` distinct elements (count capped at pool size)."""
    count = min(count, len(pool))
    indices = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in indices]
