"""Sparse address-event representation of spike recordings.

An :class:`EventStream` mirrors how neuromorphic datasets (SHD, DVS
recordings) ship: a list of ``(time, channel)`` events over a fixed
duration.  Dense binary rasters at any timestep resolution are produced
by :meth:`EventStream.to_dense` — this is exactly the "timestep
reduction" knob of the paper: fewer bins merge events and lose temporal
detail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataError

__all__ = ["EventStream"]


@dataclass(frozen=True)
class EventStream:
    """An immutable set of spike events on a channel array.

    Attributes
    ----------
    times:
        Event times in ``[0, duration)`` (float seconds), any order.
    channels:
        Event channel indices in ``[0, num_channels)``.
    num_channels:
        Size of the channel array (700 for SHD).
    duration:
        Recording length in seconds.
    """

    times: np.ndarray
    channels: np.ndarray
    num_channels: int
    duration: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        channels = np.asarray(self.channels, dtype=np.int64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "channels", channels)
        if times.ndim != 1 or channels.ndim != 1:
            raise DataError("times and channels must be 1-D arrays")
        if times.shape != channels.shape:
            raise DataError(
                f"times ({times.shape}) and channels ({channels.shape}) must align"
            )
        if self.num_channels <= 0:
            raise DataError(f"num_channels must be positive, got {self.num_channels}")
        if self.duration <= 0:
            raise DataError(f"duration must be positive, got {self.duration}")
        if times.size:
            if times.min() < 0 or times.max() >= self.duration:
                raise DataError("event times must lie in [0, duration)")
            if channels.min() < 0 or channels.max() >= self.num_channels:
                raise DataError("event channels out of range")

    @property
    def num_events(self) -> int:
        """Number of address events in the stream."""
        return int(self.times.size)

    def to_dense(self, timesteps: int) -> np.ndarray:
        """Bin events into a dense binary raster ``[timesteps, num_channels]``.

        Multiple events falling into one (bin, channel) cell clip to a
        single spike — binary rasters are what the SNN consumes and what
        the latent-replay codecs store.
        """
        if timesteps <= 0:
            raise DataError(f"timesteps must be positive, got {timesteps}")
        raster = np.zeros((timesteps, self.num_channels), dtype=np.float32)
        if self.times.size:
            bins = np.floor(self.times / self.duration * timesteps).astype(np.int64)
            bins = np.clip(bins, 0, timesteps - 1)
            raster[bins, self.channels] = 1.0
        return raster

    def mean_rate(self) -> float:
        """Average events per channel per second."""
        return self.num_events / (self.num_channels * self.duration)

    @staticmethod
    def from_dense(raster: np.ndarray, duration: float = 1.0) -> "EventStream":
        """Inverse of :meth:`to_dense`: bin centres become event times."""
        raster = np.asarray(raster)
        if raster.ndim != 2:
            raise DataError(f"raster must be [T, C], got shape {raster.shape}")
        timesteps, num_channels = raster.shape
        t_idx, c_idx = np.nonzero(raster)
        times = (t_idx + 0.5) / timesteps * duration
        return EventStream(
            times=times,
            channels=c_idx,
            num_channels=num_channels,
            duration=duration,
        )
