"""SimBART: a numpy/heuristic stand-in for the GOTTA BART QA model.

What is real: extractive answering.  Given a question (or a cloze
statement with a ``[MASK]``) and a context paragraph, the model scores
context sentences by word overlap and extracts the answer word — which
is genuinely correct on the synthetic FSQA corpus, so exact-match can
be asserted in tests.

What is simulated: cost.  The model reports the 1.59 GB payload the
paper measured for GOTTA (decisive for the Ray object-store overhead)
and per-token generation FLOPs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster import Sized
from repro.config import ModelConfig
from repro.ml.tokenizer import HashingTokenizer

__all__ = ["SimBartGenerator", "MASK_TOKEN"]

MASK_TOKEN = "[MASK]"

_STOPWORDS = frozenset(
    "the a an of is was are were in on at to and or for with by what which "
    "who whom whose where when why how does do did".split()
)


class SimBartGenerator(Sized):
    """Few-shot QA by sentence retrieval + answer-word extraction."""

    def __init__(self, name: str, model_config: ModelConfig) -> None:
        self.name = name
        self.model_config = model_config
        self.tokenizer = HashingTokenizer()

    # -- cost interface -----------------------------------------------------

    def payload_bytes(self) -> int:
        return self.model_config.bart_bytes

    def generation_flops(self, prompt: str, context: str) -> float:
        """FLOPs of one generate() call: encoder over prompt+context
        plus a short decode."""
        tokens = self.tokenizer.num_tokens(prompt) + self.tokenizer.num_tokens(
            context
        )
        decode_tokens = 8  # short answers
        return (tokens + decode_tokens) * self.model_config.bart_flops_per_token_forward

    # -- real computation -----------------------------------------------------

    def _content_words(self, text: str) -> List[str]:
        return [
            word
            for word in self.tokenizer.words(text.replace(MASK_TOKEN, " "))
            if word not in _STOPWORDS
        ]

    def _split_sentences(self, paragraph: str) -> List[str]:
        return [s.strip() for s in paragraph.split(".") if s.strip()]

    def _best_sentence(self, query: str, context: str) -> Optional[str]:
        query_words = set(self._content_words(query))
        best: Tuple[int, Optional[str]] = (0, None)
        for sentence in self._split_sentences(context):
            overlap = len(query_words & set(self._content_words(sentence)))
            if overlap > best[0]:
                best = (overlap, sentence)
        return best[1]

    def generate(self, question: str, context: str) -> str:
        """Answer a question (or fill a cloze) from the context.

        The answer is the last content word of the best-matching
        context sentence that does not already occur in the question —
        for "The capital of X is Y." and "What is the capital of X?"
        this extracts Y.
        """
        sentence = self._best_sentence(question, context)
        if sentence is None:
            return ""
        question_words = set(self.tokenizer.words(question))
        candidates = [
            word
            for word in self._content_words(sentence)
            if word not in question_words
        ]
        return candidates[-1] if candidates else ""
