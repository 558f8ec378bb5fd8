"""Data substrate: event streams, the synthetic SHD workload, tasks, loaders.

The paper evaluates on the Spiking Heidelberg Digits (SHD) dataset —
audio-derived spike trains over 700 cochlear channels, 20 classes.  The
real files cannot be downloaded in this offline environment, so
:mod:`repro.data.synthetic_shd` provides a generative stand-in that
preserves the properties the method exercises:
temporally-structured sparse events whose class information degrades as
timesteps are reduced.

The class-incremental protocol of the paper (pre-train on 19 classes,
continually learn the 20th) lives in :mod:`repro.data.tasks`.
"""

from repro.data.datasets import SpikeDataset
from repro.data.events import EventStream
from repro.data.loaders import DataLoader
from repro.data.stats import RasterStats, class_confusability, dataset_stats, raster_stats
from repro.data.synthetic_shd import SyntheticSHD, SyntheticSHDConfig
from repro.data.tasks import (
    ClassIncrementalSplit,
    class_incremental_split,
    make_class_incremental,
)
from repro.data.transforms import (
    channel_dropout,
    drift_dataset,
    rebin_raster,
    time_jitter,
)

__all__ = [
    "EventStream",
    "SpikeDataset",
    "SyntheticSHD",
    "SyntheticSHDConfig",
    "ClassIncrementalSplit",
    "class_incremental_split",
    "make_class_incremental",
    "DataLoader",
    "rebin_raster",
    "time_jitter",
    "channel_dropout",
    "drift_dataset",
    "RasterStats",
    "raster_stats",
    "dataset_stats",
    "class_confusability",
]
