"""SimBERT: a numpy stand-in for a fine-tuned BERT binary classifier.

What is real: a hashing-trick bag-of-embeddings encoder feeding a
logistic-regression head trained by SGD — the model genuinely learns
(WEF tests assert loss decreases and accuracy beats chance on the
synthetic tweets, whose vocabulary correlates with the labels).

What is simulated: *cost*.  The model reports the byte size and
per-token forward/backward FLOPs of a full BERT-base (calibrated in
:class:`repro.config.ModelConfig`), which is what the engines charge
virtual time for.  See DESIGN.md section 2.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.cluster import Sized
from repro.config import ModelConfig
from repro.errors import NotFittedError
from repro.ml.tokenizer import HashingTokenizer

__all__ = ["SimBertClassifier"]

#: Pooled features per frozen table, then per text.  A table is fixed by
#: ``(seed, vocab_size, embedding_dim)`` and read-only once drawn (only
#: ``weights`` / ``bias`` train), so a text's features are computed once
#: per table for the whole process: Fig 13b fine-tunes the same four
#: tables on growing prefixes of one corpus, twice.
_FEATURES: Dict[Tuple[int, int, int], Dict[str, np.ndarray]] = {}
#: Most feature arrays held over all tables (0.25 KiB each at the
#: default 32 dimensions); reaching it empties every table's memo.
_FEATURES_CAP = 4096
#: Each model's table memo, kept off the instance: a model's pickle is
#: what the object store and the result cache see.  A copy or an
#: unpickled model has no entry and computes its features directly.
_MEMO_OF: WeakKeyDictionary = WeakKeyDictionary()


class SimBertClassifier(Sized):
    """A binary text classifier with BERT-shaped cost reporting."""

    def __init__(
        self,
        name: str,
        model_config: ModelConfig,
        embedding_dim: int = 32,
        vocab_size: int = 8192,
        seed: int = 13,
    ) -> None:
        self.name = name
        self.model_config = model_config
        self.tokenizer = HashingTokenizer(vocab_size)
        self._table = (seed, vocab_size, embedding_dim)
        _MEMO_OF[self] = _FEATURES.setdefault(self._table, {})
        self.weights = np.zeros(embedding_dim)
        self.bias = 0.0
        self.fitted = False

    @property
    def embeddings(self) -> np.ndarray:
        """Frozen "pre-trained" token embeddings, drawn on first read.

        A model whose texts all hit the features memo never reads its
        table, so it never pays the 2 MiB draw.  Each model draws its
        own: one per ``(seed, shape)`` would raise peak RSS on the
        paper-scale runs, which hold several at once.
        """
        table = self.__dict__.get("embeddings")
        if table is None:
            seed, vocab_size, embedding_dim = self._table
            table = np.random.RandomState(seed).normal(
                0.0, 1.0, size=(vocab_size, embedding_dim)
            )
            table.flags.writeable = False
            self.__dict__["embeddings"] = table
        return table

    def __getstate__(self) -> Dict[str, object]:
        # The eager class's state, key for key, so a model pickles to the
        # same bytes whether or not its table was ever read.
        return {
            "name": self.name,
            "model_config": self.model_config,
            "tokenizer": self.tokenizer,
            "embeddings": self.embeddings,
            "weights": self.weights,
            "bias": self.bias,
            "fitted": self.fitted,
        }

    # -- cost interface -----------------------------------------------------

    def payload_bytes(self) -> int:
        """Full-model size (used by the object store / network)."""
        return self.model_config.bert_bytes

    def forward_flops(self, text: str) -> float:
        """FLOPs of one forward pass over ``text``."""
        tokens = max(1, self.tokenizer.num_tokens(text))
        return tokens * self.model_config.bert_flops_per_token_forward

    def train_step_flops(self, text: str) -> float:
        """FLOPs of one training step (forward + backward)."""
        return self.forward_flops(text) * (
            1.0 + self.model_config.bert_train_backward_multiplier
        )

    # -- real computation -----------------------------------------------------

    def encode(self, text: str) -> np.ndarray:
        """Mean pooled token embeddings (the [CLS] stand-in), read-only."""
        memo = _MEMO_OF.get(self)
        if memo is None:
            return self._pool(text)
        features = memo.get(text)
        if features is None:
            if sum(map(len, _FEATURES.values())) >= _FEATURES_CAP:
                for held in _FEATURES.values():
                    held.clear()
            features = memo[text] = self._pool(text)
        return features

    def _pool(self, text: str) -> np.ndarray:
        token_ids = self.tokenizer.tokenize(text)
        if token_ids:
            features = self.embeddings[token_ids].mean(axis=0)
        else:
            features = np.zeros(self.weights.shape[0])
        features.flags.writeable = False
        return features

    def predict_proba(self, text: str) -> float:
        """P(label=1 | text)."""
        if not self.fitted:
            raise NotFittedError(f"model {self.name!r} has not been trained")
        logit = float(self.encode(text) @ self.weights + self.bias)
        return 1.0 / (1.0 + np.exp(-logit))

    def predict(self, text: str, threshold: float = 0.5) -> int:
        return int(self.predict_proba(text) >= threshold)

    def train_epoch(
        self, examples: Sequence[Tuple[str, int]], learning_rate: float = 0.5
    ) -> float:
        """One SGD epoch over (text, label) pairs; returns mean loss."""
        if not examples:
            raise ValueError("cannot train on an empty epoch")
        total_loss = 0.0
        for text, label in examples:
            features = self.encode(text)
            logit = float(features @ self.weights + self.bias)
            prob = 1.0 / (1.0 + np.exp(-logit))
            eps = 1e-12
            total_loss += -(
                label * np.log(prob + eps) + (1 - label) * np.log(1 - prob + eps)
            )
            gradient = prob - label
            self.weights -= learning_rate * gradient * features
            self.bias -= learning_rate * gradient
        self.fitted = True
        return total_loss / len(examples)

    def fit(
        self,
        examples: Sequence[Tuple[str, int]],
        epochs: int = 3,
        learning_rate: float = 0.5,
    ) -> List[float]:
        """Train for several epochs; returns the loss curve."""
        return [self.train_epoch(examples, learning_rate) for _ in range(epochs)]
