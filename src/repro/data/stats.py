"""Spike-train statistics: dataset- and activation-level summaries.

Used by the analysis example and by tests to characterise workloads the
way the SHD paper does (rates, occupancy, temporal structure), and to
verify that synthetic data stays in the sparse regime the cost model
assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.datasets import SpikeDataset
from repro.errors import DataError

__all__ = ["RasterStats", "raster_stats", "dataset_stats", "class_confusability"]


@dataclass(frozen=True)
class RasterStats:
    """Summary statistics of one binary raster ``[T, C]`` (or a batch).

    Attributes
    ----------
    density:
        Fraction of active cells (spikes per timestep per channel).
    spikes_per_sample:
        Mean total spike count per sample.
    active_channel_fraction:
        Fraction of channels with at least one spike.
    temporal_centroid:
        Mean spike time as a fraction of the duration (0.5 = centred).
    burstiness:
        Coefficient of variation of per-timestep spike counts; 0 for a
        perfectly uniform train, higher for clustered activity.
    """

    density: float
    spikes_per_sample: float
    active_channel_fraction: float
    temporal_centroid: float
    burstiness: float


def raster_stats(raster: np.ndarray) -> RasterStats:
    """Compute :class:`RasterStats` for ``[T, C]`` or ``[T, N, C]`` rasters."""
    raster = np.asarray(raster)
    if raster.ndim == 2:
        raster = raster[:, None, :]
    if raster.ndim != 3:
        raise DataError(f"expected [T, C] or [T, N, C], got shape {raster.shape}")
    timesteps, batch, channels = raster.shape
    total = float(raster.sum())
    if total == 0:
        return RasterStats(0.0, 0.0, 0.0, 0.5, 0.0)

    per_step = raster.sum(axis=(1, 2))
    times = np.arange(timesteps)
    centroid = float((per_step * times).sum() / total / max(timesteps - 1, 1))
    mean_rate = per_step.mean()
    burstiness = float(per_step.std() / mean_rate) if mean_rate > 0 else 0.0
    active = float((raster.sum(axis=0) > 0).mean())
    return RasterStats(
        density=total / raster.size,
        spikes_per_sample=total / batch,
        active_channel_fraction=active,
        temporal_centroid=centroid,
        burstiness=burstiness,
    )


def dataset_stats(dataset: SpikeDataset, timesteps: int) -> dict[int, RasterStats]:
    """Per-class :class:`RasterStats` of a dataset at a binning."""
    dense = dataset.to_dense(timesteps)
    result: dict[int, RasterStats] = {}
    for class_id in dataset.present_classes:
        mask = dataset.labels == class_id
        result[class_id] = raster_stats(dense[:, mask, :])
    return result


def class_confusability(dataset: SpikeDataset, timesteps: int) -> np.ndarray:
    """Pairwise class-mean raster distances, normalized to [0, 1].

    Entry ``[i, j]`` is 1 minus the normalized L1 distance between the
    mean rasters of classes i and j — 1.0 on the diagonal, higher
    off-diagonal values mean classes look more alike at this binning.
    Coarser binnings should (weakly) increase confusability, which is
    the information-theoretic face of the paper's timestep trade-off.
    """
    dense = dataset.to_dense(timesteps)
    classes = dataset.present_classes
    if not classes:
        raise DataError("dataset has no samples")
    means = np.stack(
        [dense[:, dataset.labels == c, :].mean(axis=1) for c in classes]
    )  # [K, T, C]
    n = len(classes)
    out = np.zeros((n, n))
    scale = means.mean() * 2.0 * means[0].size or 1.0
    for i in range(n):
        for j in range(n):
            distance = np.abs(means[i] - means[j]).sum()
            out[i, j] = 1.0 - min(distance / scale, 1.0)
    return out
