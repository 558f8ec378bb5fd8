"""Labelled spike datasets with dense-raster materialisation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.events import EventStream
from repro.errors import DataError

__all__ = ["SpikeDataset"]


@dataclass
class SpikeDataset:
    """A list of :class:`EventStream` recordings with integer labels.

    ``num_classes`` is the label-space size of the *full* problem (20 for
    SHD), independent of which classes are present — class-incremental
    subsets keep global label ids so the readout layer never needs
    remapping.
    """

    streams: list[EventStream]
    labels: np.ndarray
    num_classes: int
    _dense_cache: dict[int, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.streams) != self.labels.shape[0]:
            raise DataError(
                f"{len(self.streams)} streams but {self.labels.shape[0]} labels"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise DataError(
                f"labels must lie in [0, {self.num_classes}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    def __len__(self) -> int:
        return len(self.streams)

    @property
    def present_classes(self) -> list[int]:
        """Sorted class labels that actually occur in this dataset."""
        return sorted(set(int(label) for label in self.labels))

    def class_counts(self) -> dict[int, int]:
        """Mapping of class label to its number of samples."""
        values, counts = np.unique(self.labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def to_dense(self, timesteps: int) -> np.ndarray:
        """Materialise all recordings as ``[T, N, C]`` time-major rasters.

        Cached per timestep count — experiments rebin the same dataset at
        several resolutions (100/60/40/20) and binning dominates setup
        cost otherwise.
        """
        if timesteps not in self._dense_cache:
            if not self.streams:
                num_channels = 0
            else:
                num_channels = self.streams[0].num_channels
            rasters = np.zeros(
                (timesteps, len(self.streams), num_channels), dtype=np.float32
            )
            for i, stream in enumerate(self.streams):
                rasters[:, i, :] = stream.to_dense(timesteps)
            self._dense_cache[timesteps] = rasters
        return self._dense_cache[timesteps]

    def subset(self, indices) -> "SpikeDataset":
        """New dataset holding only the samples at ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        return SpikeDataset(
            streams=[self.streams[i] for i in indices],
            labels=self.labels[indices],
            num_classes=self.num_classes,
        )

    def sample_fraction(
        self, fraction: float, rng: np.random.Generator
    ) -> "SpikeDataset":
        """Class-stratified random subset (the replay subset TS_replay).

        Keeps ``ceil(fraction * n_c)`` recordings of every class ``c`` so
        no old class is dropped from the replay buffer.
        """
        if not 0.0 < fraction <= 1.0:
            raise DataError(f"fraction must lie in (0, 1], got {fraction}")
        chosen: list[int] = []
        for class_id in self.present_classes:
            class_indices = np.flatnonzero(self.labels == class_id)
            keep = max(1, int(np.ceil(fraction * class_indices.size)))
            chosen.extend(rng.choice(class_indices, size=keep, replace=False).tolist())
        return self.subset(sorted(chosen))

    def concat(self, other: "SpikeDataset") -> "SpikeDataset":
        """Concatenate two compatible datasets along the sample axis."""
        if self.num_classes != other.num_classes:
            raise DataError(
                f"cannot concat datasets with {self.num_classes} vs "
                f"{other.num_classes} classes"
            )
        return SpikeDataset(
            streams=self.streams + other.streams,
            labels=np.concatenate([self.labels, other.labels]),
            num_classes=self.num_classes,
        )
