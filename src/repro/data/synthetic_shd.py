"""A generative stand-in for the Spiking Heidelberg Digits dataset.

Why this exists
---------------
The paper's workload is SHD [Cramer et al., 2020]: spoken digits (0-9 in
English and German, 20 classes) converted to spike trains over 700
cochlear-model channels.  The real files are a network download, which
this environment does not allow, so we synthesize recordings with the
same interface and the same *method-relevant* structure:

- **Channelized spectro-temporal trajectories.**  A spoken digit excites
  a handful of formant-like ridges that sweep across neighbouring
  cochlear channels over time.  Each synthetic class is defined by a set
  of such trajectories (start/end channel, curvature, intensity
  envelope); samples jitter the trajectory parameters (speaker
  variability), warp time (speaking rate), and draw actual spikes from an
  inhomogeneous Poisson process on the resulting intensity field.
- **Temporal information.**  Classes share channel *occupancy* but differ
  in trajectory *timing and direction*, so coarser time binning (fewer
  timesteps) genuinely destroys class information — the accuracy-vs-
  timestep tension at the core of the paper (Fig. 2b, Fig. 8).
- **Sparsity.**  Event counts per recording are calibrated to a few
  spikes per channel on average, like SHD.

The generator is fully deterministic given ``(config, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.data.datasets import SpikeDataset
from repro.data.events import EventStream
from repro.errors import ConfigError, DataError
from repro.seeding import spawn

__all__ = ["SyntheticSHDConfig", "SyntheticSHD"]


@dataclass(frozen=True)
class SyntheticSHDConfig:
    """Shape and statistics of the synthetic dataset.

    Attributes
    ----------
    num_channels:
        Cochlear channel count (SHD: 700).
    num_classes:
        Digit classes (SHD: 20).
    trajectories_per_class:
        Formant-like ridges per class prototype.
    num_anchors:
        Size of the *shared* pool of channel positions that trajectory
        endpoints are drawn from.  Because all classes sweep between the
        same anchors, channel occupancy alone barely separates classes —
        the discriminative information is *when* and *in which direction*
        the sweeps happen, which is what coarser time binning destroys
        (the accuracy-vs-timestep tension of paper Fig. 2b / Fig. 8).
    peak_rate:
        Peak event rate of a trajectory, events per channel per second.
    background_rate:
        Uniform noise event rate (sensor noise).
    duration:
        Nominal recording length in seconds (SHD recordings are ~1 s).
    channel_bandwidth:
        Gaussian width of a trajectory across channels, as a fraction of
        the channel array.
    time_warp_std:
        Std-dev of the per-sample speaking-rate warp (0.1 -> ±10%).
    channel_jitter_std:
        Std-dev of per-sample trajectory displacement, as a fraction of
        the channel array.
    grid_steps:
        Resolution of the intensity grid events are drawn on.  Event
        times get uniform jitter inside a grid cell, so any dense binning
        at ``timesteps <= grid_steps`` is meaningful.
    """

    num_channels: int = 700
    num_classes: int = 20
    trajectories_per_class: int = 3
    num_anchors: int = 8
    peak_rate: float = 60.0
    background_rate: float = 0.4
    duration: float = 1.0
    channel_bandwidth: float = 0.03
    time_warp_std: float = 0.08
    channel_jitter_std: float = 0.02
    grid_steps: int = 200

    def __post_init__(self):
        if self.num_channels <= 0:
            raise ConfigError(f"num_channels must be positive, got {self.num_channels}")
        if self.num_classes <= 1:
            raise ConfigError(f"num_classes must be > 1, got {self.num_classes}")
        if self.trajectories_per_class <= 0:
            raise ConfigError(
                f"trajectories_per_class must be positive, got {self.trajectories_per_class}"
            )
        if self.peak_rate <= 0 or self.background_rate < 0:
            raise ConfigError("rates must be positive (background may be 0)")
        if self.duration <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration}")
        if not 0 < self.channel_bandwidth < 0.5:
            raise ConfigError(
                f"channel_bandwidth must lie in (0, 0.5), got {self.channel_bandwidth}"
            )
        if self.num_anchors < 2:
            raise ConfigError(f"num_anchors must be >= 2, got {self.num_anchors}")
        if self.grid_steps < 10:
            raise ConfigError(f"grid_steps must be >= 10, got {self.grid_steps}")


@dataclass(frozen=True)
class _Trajectory:
    """One formant ridge of a class prototype (internal)."""

    start_channel: float  # fraction of the channel array
    end_channel: float
    curvature: float  # quadratic bend of the sweep
    onset: float  # fraction of duration
    offset: float
    intensity: float  # multiplier on peak_rate


class SyntheticSHD:
    """Deterministic generator of SHD-like spike recordings.

    Recordings are memoized per instance on ``(class_id, sample_id)``:
    every split, step, resume and shared-pretraining run that uses this
    generator reuses the stream drawn first instead of re-synthesizing
    it.  The memo is bounded by the finite ``(class, sample)`` pool the
    callers draw from and holds only what their splits reference
    anyway.  Memoized streams are read-only (their arrays are not
    writeable), so no caller can corrupt a recording another split
    shares.

    >>> gen = SyntheticSHD(SyntheticSHDConfig(num_channels=64, num_classes=4), seed=0)
    >>> stream = gen.generate(class_id=1, sample_id=0)
    >>> stream.num_channels
    64
    >>> gen.generate(class_id=1, sample_id=0) is stream
    True
    """

    def __init__(self, config: SyntheticSHDConfig, seed: int = 0):
        self.config = config
        self.seed = int(seed)
        self._memo: dict[tuple[int, int], EventStream] = {}
        # Shared anchor pool: evenly spread channel positions with a
        # seeded perturbation.  All class prototypes draw endpoints from
        # this pool, which overlaps their channel occupancy (see
        # SyntheticSHDConfig.num_anchors).
        anchor_rng = spawn(seed, "anchors")
        base = np.linspace(0.15, 0.85, config.num_anchors)
        perturb = anchor_rng.uniform(-0.03, 0.03, size=config.num_anchors)
        self._anchors = np.clip(base + perturb, 0.05, 0.95)
        self._prototypes = [
            self._make_prototype(c) for c in range(config.num_classes)
        ]

    # ------------------------------------------------------------------
    # Prototypes
    # ------------------------------------------------------------------
    def _make_prototype(self, class_id: int) -> list[_Trajectory]:
        """Draw the class-defining trajectory set from the class RNG.

        Each trajectory sweeps between two distinct shared anchors inside
        a class-specific time window.  Classes therefore differ mainly in
        *which anchor pairs connect, when, and in which direction* —
        temporal structure — rather than in raw channel occupancy.
        """
        rng = spawn(self.seed, f"class{class_id}")
        cfg = self.config
        trajectories = []
        # Stagger onset windows across the duration so trajectory order
        # is part of the class identity.
        slots = np.linspace(0.0, 0.5, cfg.trajectories_per_class)
        for k in range(cfg.trajectories_per_class):
            start_idx, end_idx = rng.choice(cfg.num_anchors, size=2, replace=False)
            onset = float(slots[k] + rng.uniform(0.0, 0.15))
            offset = float(min(onset + rng.uniform(0.3, 0.5), 1.0))
            trajectories.append(
                _Trajectory(
                    start_channel=float(self._anchors[start_idx]),
                    end_channel=float(self._anchors[end_idx]),
                    curvature=rng.uniform(-0.25, 0.25),
                    onset=onset,
                    offset=offset,
                    intensity=rng.uniform(0.7, 1.0),
                )
            )
        return trajectories

    def _check_class(self, class_id: int) -> None:
        if not 0 <= class_id < self.config.num_classes:
            raise DataError(
                f"class_id {class_id} out of range 0..{self.config.num_classes - 1}"
            )

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def intensity_field(
        self, class_id: int, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Rate field ``[grid_steps, num_channels]`` in events/channel/s.

        With ``rng`` given, per-sample speaker variability (time warp and
        channel jitter) is applied; without it, the clean class field is
        returned.

        Each ridge is evaluated only over its active window, the
        contiguous grid rows where its phase lies in ``[0, 1]``.  This is
        exact: outside the window the envelope is exactly 0, so the
        full-grid sum would add ``c * 0.0 * gauss`` there, a +0.0 (the
        Gaussian is finite and non-negative) that leaves ``field``
        bit-for-bit unchanged.  The Gaussian still spans every channel.
        """
        self._check_class(class_id)
        cfg = self.config
        grid_t = np.linspace(0.0, 1.0, cfg.grid_steps, endpoint=False) + 0.5 / cfg.grid_steps
        channels = np.arange(cfg.num_channels) / cfg.num_channels
        field = np.full(
            (cfg.grid_steps, cfg.num_channels), cfg.background_rate, dtype=np.float64
        )
        for traj in self._prototypes[class_id]:
            start, end, curve = traj.start_channel, traj.end_channel, traj.curvature
            onset, offset = traj.onset, traj.offset
            if rng is not None:
                shift = rng.normal(0.0, cfg.channel_jitter_std)
                start = min(max(start + shift, 0.02), 0.98)
                end = min(max(end + shift, 0.02), 0.98)
                warp = min(max(rng.normal(1.0, cfg.time_warp_std), 0.7), 1.3)
                onset = onset * warp
                offset = min(offset * warp, 1.0)
            # Active window envelope (smooth rise/fall).  Phase grows
            # with time, so the active rows are one contiguous run.
            span = max(offset - onset, 1e-3)
            phase = (grid_t - onset) / span
            active = (phase >= 0) & (phase <= 1)
            rows = np.flatnonzero(active)
            if rows.size == 0:
                continue
            window = slice(rows[0], rows[-1] + 1)
            envelope = np.where(active, np.sin(np.pi * np.clip(phase, 0, 1)), 0.0)
            # Channel centre sweeps from start to end with quadratic bend.
            centre = start + (end - start) * phase + curve * phase * (1 - phase)
            gauss = np.exp(
                -0.5
                * ((channels[None, :] - centre[window, None]) / cfg.channel_bandwidth) ** 2
            )
            field[window] += cfg.peak_rate * traj.intensity * envelope[window, None] * gauss
        return field

    def generate(self, class_id: int, sample_id: int) -> EventStream:
        """One recording of ``class_id`` (deterministic per sample_id).

        Drawn on the first request, then returned from the instance's
        memo: repeated requests give the *same* read-only stream.  The
        ``data.recordings`` counter tags each request ``source="drawn"``
        or ``source="memo"``.
        """
        key = (class_id, sample_id)
        stream = self._memo.get(key)
        if stream is not None:
            obs.count("data.recordings", source="memo")
            return stream
        stream = self._draw(class_id, sample_id)
        stream.times.flags.writeable = False
        stream.channels.flags.writeable = False
        self._memo[key] = stream
        obs.count("data.recordings", source="drawn")
        return stream

    def _draw(self, class_id: int, sample_id: int) -> EventStream:
        """Synthesize one recording from its own ``(seed, class, sample)`` RNG."""
        self._check_class(class_id)
        cfg = self.config
        rng = spawn(self.seed, f"sample:{class_id}:{sample_id}")
        field = self.intensity_field(class_id, rng)
        # Inhomogeneous Poisson: counts per grid cell, then jitter event
        # times uniformly inside the cell to obtain continuous times.
        dt = cfg.duration / cfg.grid_steps
        counts = rng.poisson(field * dt)
        # Binarize per cell: SHD-style binary rasters at grid resolution.
        t_idx, c_idx = np.nonzero(counts > 0)
        jitter = rng.random(t_idx.size)
        times = (t_idx + jitter) * dt
        return EventStream(
            times=times,
            channels=c_idx,
            num_channels=cfg.num_channels,
            duration=cfg.duration,
        )

    def generate_dataset(
        self,
        samples_per_class: int,
        split: str = "train",
        classes: list[int] | None = None,
    ) -> SpikeDataset:
        """Generate a labelled dataset.

        ``split`` offsets the sample ids so train/test never share draws:
        train uses ids ``0..n-1``, test uses ``10_000 + 0..n-1``.
        """
        if samples_per_class <= 0:
            raise DataError(f"samples_per_class must be positive, got {samples_per_class}")
        if split not in ("train", "test"):
            raise DataError(f"split must be 'train' or 'test', got {split!r}")
        offset = 0 if split == "train" else 10_000
        classes = list(range(self.config.num_classes)) if classes is None else classes
        for c in classes:
            self._check_class(c)
        streams: list[EventStream] = []
        labels: list[int] = []
        for class_id in classes:
            for sample_id in range(samples_per_class):
                streams.append(self.generate(class_id, offset + sample_id))
                labels.append(class_id)
        return SpikeDataset(
            streams=streams,
            labels=np.asarray(labels, dtype=np.int64),
            num_classes=self.config.num_classes,
        )
