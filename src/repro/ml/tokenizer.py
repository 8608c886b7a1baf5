"""A deterministic hashing-trick tokenizer.

Stands in for the BERT/BART WordPiece tokenizers: lowercases, splits on
non-alphanumerics, and maps each token to a bucket by a stable hash.
Deterministic across processes (no salted ``hash``), so model behaviour
and simulated costs are reproducible.
"""

from __future__ import annotations

import re
from typing import Dict, List

from repro.workflow.partitioning import stable_hash

__all__ = ["HashingTokenizer"]

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Token count per text for the whole process.  A count depends on the
#: text alone (the vocabulary only buckets the tokens), and the cost
#: model asks again for the same texts: one pass over the paper-scale
#: Fig 13 and 14 runs prices 544 texts 22 656 times.
_COUNTS: Dict[str, int] = {}
#: Most texts held; reaching it empties the memo.
_COUNTS_CAP = 4096


class HashingTokenizer:
    """Map text to token ids in ``[0, vocab_size)`` via stable hashing."""

    def __init__(self, vocab_size: int = 8192) -> None:
        if vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
        self.vocab_size = vocab_size

    def words(self, text: str) -> List[str]:
        """Lowercased alphanumeric word stream."""
        return _TOKEN_RE.findall(text.lower())

    def tokenize(self, text: str) -> List[int]:
        """Token ids of ``text`` (empty text -> empty list)."""
        return [stable_hash(word) % self.vocab_size for word in self.words(text)]

    def num_tokens(self, text: str) -> int:
        """Token count without materializing ids (cost estimation)."""
        count = _COUNTS.get(text)
        if count is None:
            if len(_COUNTS) >= _COUNTS_CAP:
                _COUNTS.clear()
            count = _COUNTS[text] = len(_TOKEN_RE.findall(text.lower()))
        return count
