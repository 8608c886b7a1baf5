"""Shared utilities for synthetic corpus generation.

All generators are seeded and deterministic: the same seed yields the
same corpus bytes, so simulated timings and model outputs are
reproducible run-to-run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

__all__ = ["BulkDraws", "SyllableNameGenerator", "pick", "pick_many"]

_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z"]
_NUCLEI = ["a", "e", "i", "o", "u", "ae", "ia", "or"]
_CODAS = ["", "n", "r", "s", "l", "x", "th"]
#: Words :class:`BulkDraws` reads from its generator at a time.
_CHUNK = 16384


class BulkDraws:
    """``RandomState(seed)``'s scalar ``randint`` and ``uniform`` draws,
    decoded from 32-bit words read in bulk.

    Each call returns, to the bit, what the same call in the same order
    on a fresh ``np.random.RandomState(seed)`` returns (NEP 19 freezes
    that legacy stream), at a fraction of a scalar call's cost.  The
    generator underneath reads ahead by up to ``_CHUNK`` words, so only
    a generator that owns its seed may use this in its place.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.RandomState(seed)
        self._words: List[int] = []
        self._next = 0

    def _word(self) -> int:
        if self._next == len(self._words):
            self._words = self._rng.randint(
                0, 2**32, size=_CHUNK, dtype=np.uint64
            ).tolist()
            self._next = 0
        word = self._words[self._next]
        self._next += 1
        return word

    def randint(self, low: int, high: Optional[int] = None) -> int:
        """``RandomState.randint(low[, high])``: masked rejection over
        32-bit words; a one-value range consumes no word."""
        if high is None:
            low, high = 0, low
        span = high - 1 - low
        if span < 0:
            raise ValueError("low >= high")
        if span > 0xFFFFFFFF:
            raise ValueError("ranges wider than 2**32 draw 64-bit words")
        if span == 0:
            return low
        mask = (1 << span.bit_length()) - 1
        while True:
            value = self._word() & mask
            if value <= span:
                return low + value

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """``RandomState.uniform(low, high)``: ``low + (high - low) * u``,
        with ``u`` the 53-bit double built from two words."""
        a = self._word() >> 5
        b = self._word() >> 6
        return low + (high - low) * ((a * 67108864.0 + b) / 9007199254740992.0)


#: What :class:`SyllableNameGenerator` and :func:`pick` draw from: they
#: call only scalar ``randint``, which :class:`BulkDraws` replays.
ScalarDraws = Union[np.random.RandomState, BulkDraws]


class SyllableNameGenerator:
    """Generate pronounceable, distinctive invented words.

    Used where the corpus needs *unique* answer/entity tokens that
    cannot collide with template vocabulary (FSQA answers, product
    names) — this is what lets tests assert exact-match retrieval.
    """

    def __init__(self, rng: ScalarDraws) -> None:
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


def pick(rng: ScalarDraws, pool: Sequence[str]) -> str:
    """Uniformly choose one element."""
    return pool[rng.randint(len(pool))]


def pick_many(
    rng: np.random.RandomState, pool: Sequence[str], count: int
) -> List[str]:
    """Choose ``count`` distinct elements (count capped at pool size)."""
    count = min(count, len(pool))
    indices = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in indices]
