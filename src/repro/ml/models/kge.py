"""TransE-style knowledge graph embedding model for the KGE task.

What is real: TransE geometry over seeded random embeddings — scoring
is ``-||h + r - t||``, and reverse lookup returns what an exact
nearest-neighbour search returns, so the task's output (which products
a user is predicted to buy) is deterministic and assertable.

What is simulated: cost.  The model reports the 375 MB payload the
paper cites for the KGE model.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.cluster import Sized
from repro.config import ModelConfig
from repro.errors import MLError

__all__ = ["TransEModel"]

#: Per model, its embedding table and whether that table's rows are
#: separate (see :func:`_rows_separate`), kept off the instance: a
#: model's pickle is what the object store and the result cache see.
_SEPARATE: WeakKeyDictionary = WeakKeyDictionary()
#: Smallest nonzero entry magnitude :func:`_rows_separate` accepts.
_TINY = 1e-140
#: Rows per block when scanning the table's entries.
_BLOCK = 4096


class TransEModel(Sized):
    """Pre-trained entity/relation embeddings with TransE scoring."""

    def __init__(
        self,
        entity_ids: Sequence[str],
        relation_ids: Sequence[str],
        model_config: ModelConfig,
        dim: int = 32,
        seed: int = 29,
    ) -> None:
        if not entity_ids:
            raise MLError("TransEModel needs at least one entity")
        if len(set(entity_ids)) != len(entity_ids):
            raise MLError("entity ids must be unique")
        self.model_config = model_config
        self.dim = dim
        rng = np.random.RandomState(seed)
        self._entity_index: Dict[str, int] = {
            entity: i for i, entity in enumerate(entity_ids)
        }
        self._entities = list(entity_ids)
        self.entity_embeddings = rng.normal(0.0, 1.0, size=(len(entity_ids), dim))
        self.entity_embeddings.flags.writeable = False
        self.relation_embeddings: Dict[str, np.ndarray] = {
            relation: rng.normal(0.0, 0.2, size=dim) for relation in relation_ids
        }

    # -- cost interface ------------------------------------------------------

    def payload_bytes(self) -> int:
        return self.model_config.kge_bytes

    # -- embeddings -------------------------------------------------------------

    @property
    def num_entities(self) -> int:
        return len(self._entities)

    def embedding_of(self, entity_id: str) -> np.ndarray:
        try:
            return self.entity_embeddings[self._entity_index[entity_id]]
        except KeyError:
            raise MLError(f"unknown entity {entity_id!r}") from None

    def embedding_table(self) -> List[Tuple[str, np.ndarray]]:
        """(entity_id, embedding) pairs — the table the KGE task joins
        products against."""
        return [
            (entity, self.entity_embeddings[i])
            for entity, i in self._entity_index.items()
        ]

    # -- scoring -------------------------------------------------------------------

    def score(
        self, head_id: str, relation: str, tail_embedding: np.ndarray
    ) -> float:
        """TransE plausibility of (head, relation, tail): higher is better."""
        try:
            rel = self.relation_embeddings[relation]
        except KeyError:
            raise MLError(f"unknown relation {relation!r}") from None
        head = self.embedding_of(head_id)
        # np.linalg.norm of a 1-D float64 vector is sqrt(x.dot(x)).
        residual = head + rel - tail_embedding
        return -math.sqrt(residual.dot(residual))

    def reverse_lookup(self, embedding: np.ndarray) -> str:
        """Nearest entity to an embedding (exact L2 search)."""
        row = self._row_of(embedding)
        if row is None:
            row = self._nearest(embedding)
        return self._entities[row]

    def _nearest(self, embedding: np.ndarray) -> int:
        """The full search: the first row at the least L2 distance."""
        distances = np.linalg.norm(self.entity_embeddings - embedding, axis=1)
        return int(np.argmin(distances))

    def _row_of(self, embedding: np.ndarray) -> Optional[int]:
        """The row of the embedding table that ``embedding`` is a view of,
        if the full search is certain to return that row; else None.

        The row's own distance is exactly 0.0, so the search returns it
        unless an earlier row also computes 0.0, which
        :func:`_rows_separate` rules out once per table.
        """
        table = self.entity_embeddings
        if (
            not isinstance(embedding, np.ndarray)
            or embedding.base is not table
            or table.flags.writeable
            or embedding.dtype != table.dtype
            or embedding.shape != table.shape[1:]
            or embedding.strides != table.strides[1:]
        ):
            return None
        checked = _SEPARATE.get(self)
        if checked is None or checked[0] is not table:
            checked = _SEPARATE[self] = (table, _rows_separate(table))
        if not checked[1]:
            return None
        offset = (
            embedding.__array_interface__["data"][0]
            - table.__array_interface__["data"][0]
        )
        row, rest = divmod(offset, table.strides[0])
        return row if not rest and 0 <= row < len(table) else None


def _rows_separate(table: np.ndarray) -> bool:
    """Whether no two rows of a float64 table compute L2 distance 0.0.

    True when every entry is finite and either 0 or at least ``_TINY``
    in magnitude, and the rows are pairwise distinct.  Then two rows
    differ in some coordinate by more than 2.2e-162, so that
    coordinate's square cannot underflow to 0.  Needs no temporary the
    size of the table: entries are scanned in blocks, and only rows
    that share a first coordinate are compared whole.
    """
    if table.dtype != np.float64 or table.ndim != 2 or not table.shape[1]:
        return False
    for start in range(0, len(table), _BLOCK):
        magnitude = np.abs(table[start:start + _BLOCK])
        if not np.isfinite(magnitude).all():
            return False
        if ((magnitude < _TINY) & (magnitude != 0.0)).any():
            return False
    first = table[:, 0]
    order = np.argsort(first, kind="stable")
    ordered = first[order]
    tied = np.flatnonzero(ordered[1:] == ordered[:-1])
    if not len(tied):
        return True
    # Adding 0.0 turns -0.0 into 0.0; on finite floats, equal bytes are
    # then equal values.
    rows = table[order[np.union1d(tied, tied + 1)]] + 0.0
    return len({row.tobytes() for row in rows}) == len(rows)
