"""Scenario combinators: compose continual-learning regimes lazily.

The continual-learning surveys catalog their regimes — domain drift,
blurry boundaries, class repetition, label noise, task-aware
evaluation — as *orthogonal modifiers* of an underlying class stream,
yet the first cut of this package hard-coded one built-in scenario per
regime.  This module replaces that pattern with five combinators, each
a lazy wrapper applicable to **any** base scenario:

- :func:`with_drift` — drift the arriving data's input statistics with
  step-increasing severity (the domain-incremental regime);
- :func:`with_blur` — blend a class-stratified minority of already-seen
  samples into each step's training stream (the blurry regime);
- :func:`with_task_masks` — decorate steps with task membership so
  evaluation runs task-incrementally (per-task readout masks);
- :func:`with_class_repetition` — re-present classes introduced a fixed
  number of steps earlier (the class-repetition regime);
- :func:`with_label_noise` — flip a fraction of each step's training
  labels to other seen classes (noisy supervision).

Combinators nest: ``with_task_masks(with_blur(get("sequential")))`` is
a blurry stream evaluated with per-task masks.  Every wrapper satisfies
the :class:`~repro.scenario.base.Scenario` protocol structurally, so a
wrapped scenario runs through
:func:`~repro.scenario.runner.run_scenario` and passes the same
conformance checks as the built-ins.

Laziness and determinism are preserved by construction: each wrapper's
``steps()`` is a generator function that only touches the base
scenario's iterator (and therefore the dataset generator) as it is
advanced, and all randomness is spawned per step from
``experiment.seed`` with a combinator-specific key.  The legacy
``blurry`` and ``domain-incremental`` built-ins are thin aliases over
these combinators and stay bitwise-identical to their pre-combinator
implementations at the same seed (the seed keys ``scenario:blurry:<k>``
and ``scenario:domain:<k>`` are part of that contract).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.config import ExperimentConfig
from repro.data.datasets import SpikeDataset
from repro.data.synthetic_shd import SyntheticSHD
from repro.data.transforms import drift_dataset
from repro.errors import ConfigError
from repro.scenario.base import ContinualStep, Scenario
from repro.seeding import spawn

__all__ = [
    "with_drift",
    "with_blur",
    "with_task_masks",
    "with_class_repetition",
    "with_label_noise",
]


@dataclass(frozen=True)
class _Combinator:
    """Shared shell of every combinator wrapper.

    Holds the wrapped ``base`` scenario and derives ``name`` (base name
    plus the combinator's ``tag``) and ``disjoint_eval`` (propagated:
    no combinator in this module touches the eval sets' label coverage)
    from it.  Subclasses implement :meth:`steps` as a lazy generator.
    """

    base: Scenario

    #: Suffix appended to the base scenario's name (subclasses set it).
    tag = "combinator"

    @property
    def name(self) -> str:
        """Registry-style identifier: ``<base>+<tag>``."""
        return f"{self.base.name}+{self.tag}"

    @property
    def disjoint_eval(self) -> bool:
        """Propagated from the base: wrappers never touch eval labels."""
        return getattr(self.base, "disjoint_eval", False)

    def describe(self) -> str:
        """One-line summary: the base's, plus this combinator's effect."""
        return f"{self.base.describe()} [{self._effect()}]"

    def _effect(self) -> str:
        """Human-readable fragment describing the wrapper's effect."""
        raise NotImplementedError

    def steps(
        self, generator: SyntheticSHD, experiment: ExperimentConfig
    ) -> Iterator[ContinualStep]:
        """Lazily yield the base's steps, transformed (subclasses)."""
        raise NotImplementedError


@dataclass(frozen=True)
class _DriftSteps(_Combinator):
    """See :func:`with_drift`."""

    max_shift: int = 2
    dropout_p: float = 0.05
    blur: bool = True

    tag = "drift"

    def _effect(self) -> str:
        return (
            f"drift: jitter {self.max_shift}/step, "
            f"dropout {self.dropout_p:.0%}/step"
            + (", temporal blur" if self.blur else "")
        )

    def _severity(self, k: int, grid_steps: int) -> dict:
        """Severity schedule of step ``k`` (identical to the legacy
        ``domain-incremental`` built-in, part of its bitwise contract)."""
        return {
            "max_shift": (k + 1) * self.max_shift,
            "dropout_p": min((k + 1) * self.dropout_p, 0.45),
            "blur_steps": max(grid_steps // (k + 2), 8) if self.blur else None,
        }

    def steps(
        self, generator: SyntheticSHD, experiment: ExperimentConfig
    ) -> Iterator[ContinualStep]:
        """Yield the base's steps with drifted arriving data."""
        grid = generator.config.grid_steps
        for step in self.base.steps(generator, experiment):
            k = step.index
            severity = self._severity(k, grid)
            # One rng per step, consumed train-then-test in that order —
            # the exact stream the legacy built-in drew.
            rng = spawn(experiment.seed, f"scenario:domain:{k}")
            split = dataclasses.replace(
                step.split,
                new_train=drift_dataset(
                    step.split.new_train, rng, grid_steps=grid, **severity
                ),
                new_test=drift_dataset(
                    step.split.new_test, rng, grid_steps=grid, **severity
                ),
            )
            yield dataclasses.replace(
                step,
                split=split,
                name=f"step-{k}: domain drift severity {k + 1}",
                info={**step.info, "domain": k + 1, **severity},
            )


def with_drift(
    base: Scenario,
    *,
    max_shift: int = 2,
    dropout_p: float = 0.05,
    blur: bool = True,
) -> Scenario:
    """Drift each step's arriving data with step-increasing severity.

    Step k's ``new_train``/``new_test`` pass through
    :func:`~repro.data.transforms.drift_dataset` — onset jitter up to
    ``(k+1) * max_shift`` grid bins, channel dropout at
    ``(k+1) * dropout_p`` (capped at 0.45) and, with ``blur`` on,
    temporal blur through a ``grid_steps // (k+2)``-bin rebin cycle.
    Labels and the replay source (``pretrain_*``) are untouched, so
    "old accuracy" reads as retention of the clean domain and "new
    accuracy" as adaptation to the drifted one.  Over the ``stationary``
    base this reproduces the ``domain-incremental`` built-in bitwise.
    """
    if max_shift < 0:
        raise ConfigError(f"max_shift must be >= 0, got {max_shift}")
    if not 0.0 <= dropout_p < 1.0:
        raise ConfigError(f"dropout_p must lie in [0, 1), got {dropout_p}")
    return _DriftSteps(base, max_shift=max_shift, dropout_p=dropout_p, blur=blur)


@dataclass(frozen=True)
class _BlurSteps(_Combinator):
    """See :func:`with_blur`."""

    blur_fraction: float = 0.25

    tag = "blur"

    def _effect(self) -> str:
        return f"{self.blur_fraction:.0%} seen-class blend in each stream"

    def steps(
        self, generator: SyntheticSHD, experiment: ExperimentConfig
    ) -> Iterator[ContinualStep]:
        """Yield the base's steps with seen-class minority blends."""
        for step in self.base.steps(generator, experiment):
            k = step.index
            rng = spawn(experiment.seed, f"scenario:blurry:{k}")
            minority = step.split.pretrain_train.sample_fraction(
                self.blur_fraction, rng
            )
            split = dataclasses.replace(
                step.split, new_train=step.split.new_train.concat(minority)
            )
            yield dataclasses.replace(
                step,
                split=split,
                name=f"{step.name} (+{len(minority)} seen-class samples)",
                info={
                    **step.info,
                    "minority_samples": len(minority),
                    "blur_fraction": self.blur_fraction,
                },
            )


def with_blur(base: Scenario, *, blur_fraction: float = 0.25) -> Scenario:
    """Blend already-seen samples into each step's training stream.

    A class-stratified ``blur_fraction`` of every step's seen-class pool
    (``pretrain_train``, labels kept) is concatenated onto its
    ``new_train`` — the *blurry* setting, where class boundaries
    overlap.  Evaluation sets are untouched, so a ``disjoint_eval``
    promise of the base survives.  Over the ``sequential`` base this
    reproduces the ``blurry`` built-in bitwise.
    """
    if not 0.0 < blur_fraction <= 1.0:
        raise ConfigError(
            f"blur_fraction must lie in (0, 1], got {blur_fraction}"
        )
    return _BlurSteps(base, blur_fraction=blur_fraction)


@dataclass(frozen=True)
class _TaskMaskSteps(_Combinator):
    """See :func:`with_task_masks`."""

    tag = "task-masks"

    def _effect(self) -> str:
        return "task id known at inference: per-task readout masks"

    def steps(
        self, generator: SyntheticSHD, experiment: ExperimentConfig
    ) -> Iterator[ContinualStep]:
        """Yield the base's steps decorated with task membership."""
        groups: list[tuple[int, ...]] = []
        for step in self.base.steps(generator, experiment):
            if not groups:
                groups.append(step.split.old_classes)
            groups.append(step.split.new_classes)
            yield dataclasses.replace(
                step,
                name=f"step-{step.index}: +task {list(step.split.new_classes)}",
                task_classes=tuple(groups),
            )


def with_task_masks(base: Scenario) -> Scenario:
    """Evaluate the base's class stream task-incrementally.

    Decorates every step with
    :attr:`~repro.scenario.base.ContinualStep.task_classes` — task 0 is
    the first step's base pool, task j > 0 the classes that arrived at
    step j-1 — which
    :func:`~repro.scenario.runner.run_scenario` uses to mask the
    readout to the evaluated task's classes.  Training is untouched
    (task ids are an evaluation device), so the underlying stream is
    bitwise-identical to the unwrapped base at the same seed.  Over the
    ``sequential`` base this reproduces the ``task-incremental``
    built-in bitwise.
    """
    return _TaskMaskSteps(base)


@dataclass(frozen=True)
class _ClassRepetitionSteps(_Combinator):
    """See :func:`with_class_repetition`."""

    period: int = 1

    tag = "class-repetition"

    def _effect(self) -> str:
        return f"classes re-presented {self.period} step(s) after arrival"

    def steps(
        self, generator: SyntheticSHD, experiment: ExperimentConfig
    ) -> Iterator[ContinualStep]:
        """Yield the base's steps with periodic class re-presentation."""
        introduced: list[tuple[int, ...]] = []
        for step in self.base.steps(generator, experiment):
            introduced.append(step.split.new_classes)
            lag = len(introduced) - 1 - self.period
            repeated = introduced[lag] if lag >= 0 else ()
            # Only classes the step's seen pool can actually serve: a
            # base whose pretrain pool does not cover a repeated class
            # simply skips it (nothing to re-present).
            repeated = tuple(
                c for c in repeated if c in set(step.split.old_classes)
            )
            if not repeated:
                yield dataclasses.replace(
                    step, info={**step.info, "repeated_classes": ()}
                )
                continue
            encore = step.split.pretrain_train.filter_classes(repeated)
            split = dataclasses.replace(
                step.split, new_train=step.split.new_train.concat(encore)
            )
            yield dataclasses.replace(
                step,
                split=split,
                name=f"{step.name} (repeat {list(repeated)})",
                info={**step.info, "repeated_classes": repeated},
            )


def with_class_repetition(base: Scenario, *, period: int = 1) -> Scenario:
    """Re-present classes introduced ``period`` steps earlier.

    Step k's training stream additionally carries the full seen-pool
    recordings of the classes that *arrived* at step ``k - period``
    (labels kept) — the class-repetition regime of blurry/online
    taxonomies, where old classes recur instead of vanishing forever.
    Deterministic with no extra randomness (the whole repeated-class
    pool is re-presented).  Evaluation sets are untouched.
    """
    if period <= 0:
        raise ConfigError(f"period must be positive, got {period}")
    return _ClassRepetitionSteps(base, period=period)


@dataclass(frozen=True)
class _LabelNoiseSteps(_Combinator):
    """See :func:`with_label_noise`."""

    noise_fraction: float = 0.1

    tag = "label-noise"

    def _effect(self) -> str:
        return f"{self.noise_fraction:.0%} of training labels flipped"

    def steps(
        self, generator: SyntheticSHD, experiment: ExperimentConfig
    ) -> Iterator[ContinualStep]:
        """Yield the base's steps with per-step training-label noise."""
        for step in self.base.steps(generator, experiment):
            k = step.index
            rng = spawn(experiment.seed, f"scenario:label-noise:{k}")
            train = step.split.new_train
            labels = train.labels.copy()
            pool = np.asarray(
                sorted(set(step.split.old_classes) | set(step.split.new_classes)),
                dtype=np.int64,
            )
            flips = 0
            if len(labels) and pool.size > 1:
                count = int(np.ceil(self.noise_fraction * len(labels)))
                chosen = np.sort(
                    rng.choice(len(labels), size=count, replace=False)
                )
                for i in chosen:
                    wrong = pool[pool != labels[i]]
                    labels[i] = wrong[rng.integers(wrong.size)]
                flips = int(count)
            noisy = SpikeDataset(
                streams=list(train.streams),
                labels=labels,
                num_classes=train.num_classes,
            )
            split = dataclasses.replace(step.split, new_train=noisy)
            yield dataclasses.replace(
                step,
                split=split,
                name=f"{step.name} ({flips} noisy labels)",
                info={
                    **step.info,
                    "noisy_labels": flips,
                    "noise_fraction": self.noise_fraction,
                },
            )


def with_label_noise(base: Scenario, *, noise_fraction: float = 0.1) -> Scenario:
    """Flip a fraction of each step's training labels to seen classes.

    ``ceil(noise_fraction * n)`` recordings of every step's
    ``new_train`` get a uniformly chosen *wrong* label from the step's
    seen label space (old + new classes) — noisy supervision, the
    robustness regime of online-CL benchmarks.  Evaluation labels are
    never touched, so metrics still read against ground truth and a
    ``disjoint_eval`` promise of the base survives.  Deterministic per
    step via the ``scenario:label-noise:<k>`` seed key.
    """
    if not 0.0 <= noise_fraction <= 1.0:
        raise ConfigError(
            f"noise_fraction must lie in [0, 1], got {noise_fraction}"
        )
    return _LabelNoiseSteps(base, noise_fraction=noise_fraction)
