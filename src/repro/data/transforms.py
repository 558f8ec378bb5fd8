"""Raster-level transforms: rebinning, augmentation, mixing.

``rebin_raster`` is the workhorse of the paper's timestep optimisation:
it converts a raster between temporal resolutions the same way
re-binning the underlying events would.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError

__all__ = [
    "rebin_raster",
    "time_jitter",
    "channel_dropout",
    "drift_dataset",
]


def rebin_raster(raster: np.ndarray, new_timesteps: int) -> np.ndarray:
    """Re-bin a ``[T, ...]`` binary raster to ``new_timesteps`` bins.

    Each old bin maps to ``floor(t / T * T_new)``; a new bin spikes if any
    of its constituent old bins spiked (event-preserving OR-reduction).
    Downsampling merges spikes — deliberately lossy, exactly like binning
    the original event stream at the coarser resolution.  Upsampling
    places each spike at the first new bin of its window (zero-stuffing),
    matching the Fig. 7 decompression convention.
    """
    raster = np.asarray(raster)
    if raster.ndim < 1:
        raise DataError("raster must have a leading time axis")
    timesteps = raster.shape[0]
    if new_timesteps <= 0:
        raise DataError(f"new_timesteps must be positive, got {new_timesteps}")
    if new_timesteps == timesteps:
        return raster.astype(np.float32, copy=True)

    out_shape = (new_timesteps,) + raster.shape[1:]
    out = np.zeros(out_shape, dtype=np.float32)
    if new_timesteps < timesteps:
        mapping = (np.arange(timesteps) * new_timesteps) // timesteps
        np.maximum.at(out, mapping, raster.astype(np.float32, copy=False))
    else:
        mapping = (np.arange(timesteps) * new_timesteps) // timesteps
        out[mapping] = raster
    return out


def time_jitter(
    raster: np.ndarray, max_shift: int, rng: np.random.Generator
) -> np.ndarray:
    """Shift the whole raster by a random number of bins (±max_shift)."""
    if max_shift < 0:
        raise DataError(f"max_shift must be >= 0, got {max_shift}")
    shift = int(rng.integers(-max_shift, max_shift + 1))
    out = np.zeros_like(raster)
    if shift == 0:
        return raster.copy()
    if shift > 0:
        out[shift:] = raster[:-shift]
    else:
        out[:shift] = raster[-shift:]
    return out


def channel_dropout(
    raster: np.ndarray, p: float, rng: np.random.Generator
) -> np.ndarray:
    """Silence each channel independently with probability ``p``."""
    if not 0.0 <= p < 1.0:
        raise DataError(f"p must lie in [0, 1), got {p}")
    keep = rng.random(raster.shape[-1]) >= p
    return raster * keep.astype(raster.dtype)


def drift_dataset(
    dataset,
    rng: np.random.Generator,
    *,
    grid_steps: int,
    max_shift: int = 0,
    dropout_p: float = 0.0,
    blur_steps: int | None = None,
):
    """Apply a domain shift to every recording of a dataset.

    Models a deployed sensor whose input statistics drift while the
    label space stays fixed — the domain-incremental setting.  Each
    recording is rasterised at ``grid_steps`` bins and pushed through
    the raster transforms, per sample:

    1. temporal blur (optional): :func:`rebin_raster` down to
       ``blur_steps`` bins and back — the sensor's effective temporal
       resolution degrades, merging nearby events;
    2. :func:`time_jitter` by up to ``max_shift`` grid bins — onset
       drift (clock skew, changing reaction latency);
    3. :func:`channel_dropout` with probability ``dropout_p`` — dying
       channels.

    The result is converted back to an :class:`~repro.data.events.EventStream`
    per recording, so the drifted dataset walks through the exact same
    downstream machinery (dense caching, replay generation) as a clean
    one.  Deterministic given ``rng``; labels are untouched.
    """
    from repro.data.datasets import SpikeDataset
    from repro.data.events import EventStream

    if grid_steps <= 0:
        raise DataError(f"grid_steps must be positive, got {grid_steps}")
    if blur_steps is not None and not 0 < blur_steps <= grid_steps:
        raise DataError(
            f"blur_steps must lie in (0, {grid_steps}], got {blur_steps}"
        )
    streams = []
    for stream in dataset.streams:
        raster = stream.to_dense(grid_steps)
        if blur_steps is not None and blur_steps != grid_steps:
            raster = rebin_raster(rebin_raster(raster, blur_steps), grid_steps)
        raster = time_jitter(raster, max_shift, rng)
        raster = channel_dropout(raster, dropout_p, rng)
        streams.append(EventStream.from_dense(raster, duration=stream.duration))
    return SpikeDataset(
        streams=streams,
        labels=dataset.labels.copy(),
        num_classes=dataset.num_classes,
    )
