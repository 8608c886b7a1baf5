"""Dataset and batching utilities (the Figure 10 shape).

The paper shows the script paradigm explicitly constructing a
``TextDataset`` and wrapping it in a ``DataLoader`` with a user-tuned
batch size; these are the equivalents used by the script-side task
implementations.
"""

from __future__ import annotations

from typing import Generic, Iterator, List, Sequence, TypeVar

__all__ = ["TextDataset", "DataLoader"]

T = TypeVar("T")


class TextDataset(Generic[T]):
    """An indexable dataset of examples."""

    def __init__(self, examples: Sequence[T]) -> None:
        self._examples = list(examples)

    def __len__(self) -> int:
        return len(self._examples)

    def __getitem__(self, index: int) -> T:
        return self._examples[index]

    def __iter__(self) -> Iterator[T]:
        return iter(self._examples)


class DataLoader(Generic[T]):
    """Yield fixed-size batches from a dataset.

    ``batch_size`` is the knob the paper says script users "manually
    tune for the given environment" (Section III-B); a workflow
    operator declares its ``output_batch_size`` instead.
    """

    def __init__(self, dataset: TextDataset[T], batch_size: int = 8) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size

    def __len__(self) -> int:
        """Number of batches."""
        full, rem = divmod(len(self.dataset), self.batch_size)
        return full + (1 if rem else 0)

    def __iter__(self) -> Iterator[List[T]]:
        batch: List[T] = []
        for example in self.dataset:
            batch.append(example)
            if len(batch) == self.batch_size:
                yield batch
                batch = []
        if batch:
            yield batch
