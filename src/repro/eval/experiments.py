"""Experiment contexts, caching, and the figure registry.

``run("fig10", scale="bench")`` is the single entry point the benchmark
harness uses.  Expensive artefacts are cached at two levels:

- the pre-trained network is cached in-process *and* on disk (keyed by a
  hash of the full configuration), because every figure starts from the
  same pre-training run (Alg. 1 lines 1-5);
- NCL runs are cached in-process keyed by their policy knobs, because
  several figures share runs (Fig. 10's layer sweep feeds Fig. 11's
  layer-3 curves and the headline table).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.config import env_value
from repro.core.pipeline import PretrainResult, pretrain
from repro.core.strategies import NCLResult
from repro.data.synthetic_shd import SyntheticSHD
from repro.data.tasks import ClassIncrementalSplit, make_class_incremental
from repro.errors import ConfigError, ReproError
from repro.eval.results import ExperimentResult
from repro.eval.scale import ScalePreset, get_scale
from repro.snn.network import SpikingNetwork, read_weights, write_weights
from repro.training.metrics import TrainingHistory

__all__ = [
    "ExperimentContext",
    "context",
    "run",
    "run_scenario_at_scale",
    "available_experiments",
    "cache_dir",
]

_CONTEXTS: dict[str, "ExperimentContext"] = {}
_RUNS: dict[tuple, NCLResult] = {}


def cache_dir() -> Path:
    """Directory for cached pre-trained weights (override: REPRO_CACHE)."""
    path = Path(env_value("REPRO_CACHE"))
    path.mkdir(parents=True, exist_ok=True)
    return path


@dataclass
class ExperimentContext:
    """Everything shared by the figures of one scale preset."""

    preset: ScalePreset
    generator: SyntheticSHD
    split: ClassIncrementalSplit
    pretrained: PretrainResult

    def cached_run(self, key: tuple, factory) -> NCLResult:
        """Run-level cache: ``factory()`` executes on a miss."""
        full_key = (self.preset.name, self.preset.experiment.seed) + key
        if full_key not in _RUNS:
            _RUNS[full_key] = factory()
        return _RUNS[full_key]


def _config_digest(preset: ScalePreset) -> str:
    payload = json.dumps(
        {
            "shd": preset.shd.__dict__,
            "network": {
                **preset.experiment.network.__dict__,
                "layer_sizes": list(preset.experiment.network.layer_sizes),
            },
            "pretrain": preset.experiment.pretrain.__dict__,
            "seed": preset.experiment.seed,
            "classes": preset.experiment.num_pretrain_classes,
            "samples": preset.experiment.samples_per_class,
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _load_pretrained(preset: ScalePreset) -> PretrainResult | None:
    """The disk-cached pre-trained network, or None on a cache miss.

    A missing or unreadable archive is a miss — truncated or bit-flipped
    (a bad zip or a CRC error), a missing member, or weights that do not
    fit the configured network — so :func:`context` pre-trains again and
    rewrites the file.
    """
    try:
        state, extra = read_weights(_pretrain_path(preset).read_bytes())
        test_accuracy = float(extra["__test_accuracy__"])
        network = SpikingNetwork(preset.experiment.network, seed=preset.experiment.seed)
        network.load_state_dict(state)
    except (OSError, KeyError, TypeError, ValueError, ReproError):
        return None
    return PretrainResult(
        network=network,
        history=TrainingHistory(),
        test_accuracy=test_accuracy,
    )


def _store_pretrained(preset: ScalePreset, result: PretrainResult) -> None:
    write_weights(
        _pretrain_path(preset),
        result.network.state_dict(),
        __test_accuracy__=np.asarray(result.test_accuracy),
    )


def _pretrain_path(preset: ScalePreset) -> Path:
    return cache_dir() / f"pretrain-{_config_digest(preset)}.npz"


def context(scale: str = "bench") -> ExperimentContext:
    """Build (or fetch) the shared context of a scale preset."""
    if scale not in _CONTEXTS:
        preset = get_scale(scale)
        generator = SyntheticSHD(preset.shd, seed=preset.experiment.seed)
        split = make_class_incremental(
            generator,
            preset.experiment.samples_per_class,
            preset.experiment.test_samples_per_class,
            num_pretrain_classes=preset.experiment.num_pretrain_classes,
        )
        pretrained = _load_pretrained(preset)
        if pretrained is None:
            pretrained = pretrain(preset.experiment, split)
            _store_pretrained(preset, pretrained)
        _CONTEXTS[scale] = ExperimentContext(
            preset=preset, generator=generator, split=split, pretrained=pretrained
        )
    return _CONTEXTS[scale]


def available_experiments() -> list[str]:
    """Sorted ids of every reproducible figure/table."""
    from repro.eval import figures

    return sorted(figures.FIGURES)


def run(experiment_id: str, scale: str = "bench", **kwargs) -> ExperimentResult:
    """Reproduce one figure/table at the given scale."""
    from repro.eval import figures

    try:
        fn = figures.FIGURES[experiment_id]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {available_experiments()}"
        ) from None
    return fn(context(scale), **kwargs)


def run_scenario_at_scale(
    name: str, method: str = "replay4ncl", scale: str = "bench", **kwargs
):
    """Run a built-in continual-learning scenario at a scale preset.

    Thin wiring into :func:`repro.scenario.run_scenario` that reuses
    this module's shared context where possible: the default
    ``single-step`` scenario is exactly the paper's split, so its
    (disk-cached) pre-trained network and generator are shared with the
    figure experiments instead of re-training.  ``kwargs`` are forwarded
    (e.g. ``replay=ReplaySpec(...)``).
    """
    from repro import scenario as scenario_pkg

    # Reuse the cached context only when the caller overrode nothing it
    # depends on: a custom generator/experiment changes the base split,
    # and a network pretrained on a different split would silently
    # produce garbage metrics.
    overrides = ("pretrained", "generator", "experiment")
    if name == "single-step" and not any(key in kwargs for key in overrides):
        ctx = context(scale)
        kwargs["generator"] = ctx.generator
        kwargs["experiment"] = ctx.preset.experiment
        kwargs["pretrained"] = ctx.pretrained
    return scenario_pkg.run_scenario(name, method, scale=scale, **kwargs)
