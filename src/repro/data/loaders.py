"""Minibatch iteration over dense spike rasters."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import DataError

__all__ = ["DataLoader"]


class DataLoader:
    """Iterate ``(inputs, labels)`` minibatches over time-major rasters.

    Parameters
    ----------
    inputs:
        ``[T, N, C]`` dense rasters (or ``[T, N, C_latent]`` latent
        activations — the loader is agnostic).
    labels:
        ``[N]`` integer labels.
    batch_size:
        Samples per minibatch; the final batch may be smaller.
    shuffle:
        Re-draw the sample order each epoch from ``rng``.
    """

    def __init__(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        batch_size: int,
        shuffle: bool = True,
        rng: np.random.Generator | None = None,
    ):
        inputs = np.asarray(inputs)
        shape = inputs.shape
        labels = np.asarray(labels)
        if len(shape) != 3:
            raise DataError(f"inputs must be [T, N, C], got shape {shape}")
        if labels.ndim != 1 or labels.shape[0] != shape[1]:
            raise DataError(
                f"labels shape {labels.shape} incompatible with inputs {shape}"
            )
        if batch_size <= 0:
            raise DataError(f"batch_size must be positive, got {batch_size}")
        self.inputs = inputs
        self.labels = labels
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.rng = rng or np.random.default_rng()
        self._num_samples = int(shape[1])

    @property
    def num_samples(self) -> int:
        """Total samples the loader iterates per epoch."""
        return self._num_samples

    def __len__(self) -> int:
        """Number of minibatches per epoch."""
        return (self.num_samples + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        order = np.arange(self.num_samples)
        if self.shuffle:
            self.rng.shuffle(order)
        for start in range(0, self.num_samples, self.batch_size):
            batch = order[start : start + self.batch_size]
            # np.take keeps the [T, B, C] batch C-contiguous, as the
            # stacked GEMMs read it (fancy indexing comes out batch-major).
            yield np.take(self.inputs, batch, axis=1), self.labels[batch]
