"""Scale presets: ci / bench / paper.

CPU-only numpy cannot train the paper's 700-200-100-50-20 network for 50
epochs in benchmark time, so accuracy experiments run at a reduced scale
that preserves every qualitative relationship; the analytic hardware
models are exact at any scale.  The ``paper`` preset is the full
configuration for completeness.

Calibration notes
-----------------
- ``ncl.timesteps / pretrain.timesteps = 0.4`` at every scale, matching
  the paper's 40/100, so SpikingLR's factor-2 codec stores
  ``pretrain_T/2`` frames vs Replay4NCL's ``0.4 * pretrain_T`` — the 20%
  latent-memory relationship is scale-invariant.
- ``ncl.base_learning_rate`` rises as scale shrinks: the divisor rules
  (/10, /100) are the paper's, but small datasets provide far fewer
  optimizer steps per epoch, so the base is calibrated per scale for the
  new task to converge inside the epoch budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ExperimentConfig, NCLConfig, NetworkConfig, PretrainConfig
from repro.data.synthetic_shd import SyntheticSHDConfig
from repro.errors import ConfigError

__all__ = ["ScalePreset", "SCALES", "get_scale"]


@dataclass(frozen=True)
class ScalePreset:
    """A named (dataset, experiment) configuration pair."""

    name: str
    shd: SyntheticSHDConfig
    experiment: ExperimentConfig

    @property
    def description(self) -> str:
        """One-line summary shown by ``repro list``."""
        net = self.experiment.network.layer_sizes
        return (
            f"{self.name}: net={net}, T_pre={self.experiment.pretrain.timesteps}, "
            f"T_ncl={self.experiment.ncl.timesteps}, "
            f"{self.experiment.num_pretrain_classes}+1 classes"
        )


def _ci() -> ScalePreset:
    shd = SyntheticSHDConfig(
        num_channels=48, num_classes=5, grid_steps=60, peak_rate=80.0
    )
    experiment = ExperimentConfig(
        network=NetworkConfig(layer_sizes=(48, 24, 16, 12, 5), beta=0.95),
        pretrain=PretrainConfig(
            epochs=16, learning_rate=5e-3, timesteps=30, batch_size=8
        ),
        ncl=NCLConfig(
            timesteps=12,
            insertion_layer=3,
            epochs=16,
            batch_size=4,
            replay_fraction=0.3,
            base_learning_rate=2.0,
        ),
        seed=0,
        num_pretrain_classes=4,
        samples_per_class=8,
        test_samples_per_class=4,
    )
    return ScalePreset(name="ci", shd=shd, experiment=experiment)


def _bench() -> ScalePreset:
    shd = SyntheticSHDConfig(num_channels=140, num_classes=10)
    experiment = ExperimentConfig(
        network=NetworkConfig(layer_sizes=(140, 64, 48, 32, 10), beta=0.95),
        pretrain=PretrainConfig(
            epochs=40, learning_rate=2e-3, timesteps=100, batch_size=36
        ),
        ncl=NCLConfig(
            timesteps=40,
            insertion_layer=3,
            epochs=50,
            batch_size=8,
            replay_fraction=0.25,
            base_learning_rate=5e-2,
        ),
        seed=0,
        num_pretrain_classes=9,
        samples_per_class=16,
        test_samples_per_class=8,
    )
    return ScalePreset(name="bench", shd=shd, experiment=experiment)


def _paper() -> ScalePreset:
    shd = SyntheticSHDConfig(num_channels=700, num_classes=20)
    experiment = ExperimentConfig(
        network=NetworkConfig(layer_sizes=(700, 200, 100, 50, 20), beta=0.95),
        pretrain=PretrainConfig(
            epochs=50, learning_rate=1e-3, timesteps=100, batch_size=32
        ),
        ncl=NCLConfig(
            timesteps=40,
            insertion_layer=3,
            epochs=50,
            batch_size=32,
            replay_fraction=0.25,
        ),
        seed=0,
        num_pretrain_classes=19,
        samples_per_class=32,
        test_samples_per_class=16,
    )
    return ScalePreset(name="paper", shd=shd, experiment=experiment)


SCALES = {"ci": _ci, "bench": _bench, "paper": _paper}


def get_scale(name: str) -> ScalePreset:
    """Look up a preset by name; raises ConfigError on unknown names."""
    try:
        factory = SCALES[name]
    except KeyError:
        raise ConfigError(
            f"unknown scale {name!r}; available: {sorted(SCALES)}"
        ) from None
    return factory()
