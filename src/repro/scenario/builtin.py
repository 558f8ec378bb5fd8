"""The built-in scenarios.

Continual-learning surveys distinguish several settings by *what
changes* between steps; each built-in maps one onto the shared
:class:`~repro.scenario.base.ContinualStep` contract:

- ``single-step`` — the paper's 19+1 class-incremental evaluation: one
  step, one new class set.
- ``sequential`` — a stream of class-incremental steps, each replaying
  every class seen so far.
- ``task-incremental`` — the same class stream, but every step carries
  its task membership (:attr:`ContinualStep.task_classes`), so
  evaluation runs with the task id known and the readout masked to the
  active task's classes (the task-IL regime; training is identical to
  ``sequential`` at the same seed — only inference changes).
- ``domain-incremental`` — the label space is fixed; the *input
  statistics* drift step by step (temporal blur, onset jitter, dying
  channels via :func:`~repro.data.transforms.drift_dataset`).
- ``blurry`` — class-incremental with overlapping boundaries: each
  step's stream is dominated by its new classes but carries a minority
  blend of already-seen classes (the online/blurry setting).
- ``streaming`` — the online regime the paper's edge story implies: a
  single pass over each task's data, arriving in small chunks, with the
  task evaluated anytime (after every chunk).

``task-incremental`` and ``blurry`` subclass ``sequential`` and decorate
its steps; ``domain-incremental`` drifts one clean split over all
classes.  The seed keys (``scenario:blurry:<k>``,
``scenario:domain:<k>``), step names and ``info`` dicts are part of
their bitwise contract (pinned against inline reference
implementations in ``tests/scenario/test_builtin.py``).

All built-ins are lazy: datasets materialise only as ``steps()`` is
iterated — class streams generate step k's datasets only when the
iterator reaches it.  Everything is deterministic given
``(generator, experiment)`` — per-step randomness is spawned from
``experiment.seed``.

Each built-in also declares ``disjoint_eval``: ``True`` promises that
every step's ``new_test`` covers only that step's new classes, disjoint
from the old pool (the conformance suite checks the promise for every
built-in that makes it); ``domain-incremental`` sets it to ``False`` —
its "new" task is the same label space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.config import ExperimentConfig
from repro.data.synthetic_shd import SyntheticSHD
from repro.data.tasks import (
    ClassIncrementalSplit,
    class_incremental_split,
    make_class_incremental,
)
from repro.data.transforms import drift_dataset
from repro.errors import ConfigError, DataError
from repro.scenario.base import ContinualStep
from repro.seeding import spawn

__all__ = [
    "SingleStepScenario",
    "SequentialScenario",
    "TaskIncrementalScenario",
    "DomainIncrementalScenario",
    "BlurryScenario",
    "StreamingScenario",
]


@dataclass(frozen=True)
class SingleStepScenario:
    """The paper's evaluation: one continual step adding the held-out classes.

    ``num_pretrain_classes`` overrides the experiment's setting (which
    defaults to ``num_classes - 1`` — exactly one class arrives during
    the CL phase).
    """

    num_pretrain_classes: int | None = None

    name = "single-step"
    disjoint_eval = True

    def describe(self) -> str:
        """One-line summary for ``repro scenario list``."""
        return "one class-incremental step: pre-train on the old classes, +new"

    def steps(
        self, generator: SyntheticSHD, experiment: ExperimentConfig
    ) -> Iterator[ContinualStep]:
        """Yield the single class-incremental step."""
        base = (
            self.num_pretrain_classes
            if self.num_pretrain_classes is not None
            else experiment.num_pretrain_classes
        )
        split = make_class_incremental(
            generator,
            experiment.samples_per_class,
            experiment.test_samples_per_class,
            num_pretrain_classes=base,
        )
        yield ContinualStep(
            index=0,
            split=split,
            name=f"step-0: +classes {list(split.new_classes)}",
            info={
                "old_classes": split.old_classes,
                "new_classes": split.new_classes,
            },
        )


def _default_base_classes(
    generator: SyntheticSHD, steps: int, classes_per_step: int
) -> int:
    """Largest base pool leaving ``steps * classes_per_step`` classes free."""
    base = generator.config.num_classes - steps * classes_per_step
    if base <= 0:
        raise DataError(
            f"{steps} steps x {classes_per_step} classes need more classes "
            f"than the generator's {generator.config.num_classes}"
        )
    return base


@dataclass(frozen=True)
class SequentialScenario:
    """A stream of class-incremental steps (the multi-step stress test).

    Step k adds ``classes_per_step`` new classes, and its replay pool
    covers everything seen so far: the base classes plus the classes
    learned in steps ``< k``, whose latent data is regenerated from
    their training recordings through the frozen front (the frozen
    layers never change, so regeneration is exact).  ``base_classes``
    defaults to every class not consumed by the stream.
    """

    steps_count: int = 2
    classes_per_step: int = 1
    base_classes: int | None = None

    name = "sequential"
    disjoint_eval = True

    def __post_init__(self):
        if self.steps_count <= 0:
            raise ConfigError(
                f"steps_count must be positive, got {self.steps_count}"
            )

    def describe(self) -> str:
        """One-line summary for ``repro scenario list``."""
        return (
            f"{self.steps_count} class-incremental steps, "
            f"{self.classes_per_step} new class(es) each"
        )

    def steps(
        self, generator: SyntheticSHD, experiment: ExperimentConfig
    ) -> Iterator[ContinualStep]:
        """Yield the class-incremental steps lazily, in stream order.

        Step k's datasets materialise only when the iterator reaches it;
        the generator's memo keeps every recording it has drawn, so step
        k re-uses the seen classes' recordings instead of
        re-synthesizing them.
        """
        per_step = self.classes_per_step
        base = self.base_classes
        if base is None:
            base = _default_base_classes(generator, self.steps_count, per_step)
        if base <= 0 or per_step <= 0:
            raise DataError("base_classes and classes_per_step must be positive")
        needed = base + self.steps_count * per_step
        if needed > generator.config.num_classes:
            raise DataError(
                f"scenario needs {needed} classes but the generator has "
                f"{generator.config.num_classes}"
            )
        for k in range(self.steps_count):
            split = class_incremental_split(
                generator,
                range(base + k * per_step),
                range(base + k * per_step, base + (k + 1) * per_step),
                experiment.samples_per_class,
                experiment.test_samples_per_class,
            )
            yield ContinualStep(
                index=k,
                split=split,
                name=f"step-{k}: +classes {list(split.new_classes)}",
                info={"new_classes": split.new_classes},
            )


@dataclass(frozen=True)
class TaskIncrementalScenario(SequentialScenario):
    """The ``sequential`` class stream evaluated task-incrementally.

    Standard continual-learning taxonomy (van de Ven & Tolias; the
    neuromorphic-CL surveys) splits incremental class streams into two
    regimes: *class-incremental* (inference must pick among all classes
    seen so far) and *task-incremental* (the task id is available at
    inference, so the readout is masked to the active task's classes).
    Latent-replay systems report both — task-IL is the easier regime
    with the milder forgetting profile.

    Data layout and training are **identical** to
    :class:`SequentialScenario` at the same parameters and seed (the
    splits are bitwise the same; replay and the optimizer never see the
    task ids).  The only difference: every step carries
    :attr:`~repro.scenario.base.ContinualStep.task_classes` — one class
    group per task seen so far, base task first — which
    :func:`~repro.scenario.runner.run_scenario` uses to mask the
    readout per evaluated task.  Masking can only help a task whose
    true class is in its own group, so the task-IL accuracy matrix
    dominates the class-IL one entry-wise for the same trained network.
    Task 0 is the first step's base pool; task j > 0 holds the classes
    that arrived at step j-1.
    """

    name = "task-incremental"
    disjoint_eval = True

    def describe(self) -> str:
        """One-line summary for ``repro scenario list``."""
        return (
            f"{self.steps_count} task-incremental steps, "
            f"{self.classes_per_step} new class(es) each "
            "(task id known at inference: per-task readout masks)"
        )

    def steps(
        self, generator: SyntheticSHD, experiment: ExperimentConfig
    ) -> Iterator[ContinualStep]:
        """Yield the parent stream's steps, decorated with task membership."""
        groups: list[tuple[int, ...]] = []
        for step in super().steps(generator, experiment):
            if not groups:
                groups.append(step.split.old_classes)
            groups.append(step.split.new_classes)
            yield replace(
                step,
                name=f"step-{step.index}: +task {list(step.split.new_classes)}",
                task_classes=tuple(groups),
            )


@dataclass(frozen=True)
class DomainIncrementalScenario:
    """Fixed classes, drifting input statistics.

    The network pre-trains on the *clean* domain over all classes; each
    continual step presents the same classes under a progressively
    harsher domain built from the existing raster transforms
    (:func:`~repro.data.transforms.drift_dataset`): step k applies
    onset jitter up to ``(k+1) * max_shift`` grid bins, channel dropout
    at ``(k+1) * dropout_p`` (capped at 0.45), and — with ``blur`` on —
    temporal blur through a ``grid_steps // (k+2)``-bin rebin cycle.
    Each step's split keeps the clean datasets as the replay source /
    retention test (``pretrain_*``) and carries the drifted ones as the
    arriving task (``new_*``), so "old accuracy" reads as *retention of
    the original domain* and "new accuracy" as *adaptation to the
    drifted one*.
    """

    steps_count: int = 2
    max_shift: int = 2
    dropout_p: float = 0.05
    blur: bool = True

    name = "domain-incremental"
    #: The "new" task is the same label space under drift — eval sets
    #: intentionally share classes.
    disjoint_eval = False

    def __post_init__(self):
        if self.steps_count <= 0:
            raise ConfigError(
                f"steps_count must be positive, got {self.steps_count}"
            )
        if self.max_shift < 0:
            raise ConfigError(f"max_shift must be >= 0, got {self.max_shift}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(
                f"dropout_p must lie in [0, 1), got {self.dropout_p}"
            )

    def describe(self) -> str:
        """One-line summary for ``repro scenario list``."""
        return (
            f"{self.steps_count} domain-drift steps over fixed classes "
            f"(jitter {self.max_shift}/step, dropout {self.dropout_p:.0%}/step"
            + (", temporal blur)" if self.blur else ")")
        )

    def steps(
        self, generator: SyntheticSHD, experiment: ExperimentConfig
    ) -> Iterator[ContinualStep]:
        """Yield steps of the same classes under increasing drift severity."""
        clean_train = generator.generate_dataset(
            experiment.samples_per_class, split="train"
        )
        clean_test = generator.generate_dataset(
            experiment.test_samples_per_class, split="test"
        )
        all_classes = tuple(range(generator.config.num_classes))
        grid = generator.config.grid_steps
        for k in range(self.steps_count):
            severity = {
                "max_shift": (k + 1) * self.max_shift,
                "dropout_p": min((k + 1) * self.dropout_p, 0.45),
                "blur_steps": max(grid // (k + 2), 8) if self.blur else None,
            }
            # One rng per step, consumed train-then-test in that order.
            rng = spawn(experiment.seed, f"scenario:domain:{k}")
            split = ClassIncrementalSplit(
                pretrain_train=clean_train,
                pretrain_test=clean_test,
                new_train=drift_dataset(
                    clean_train, rng, grid_steps=grid, **severity
                ),
                new_test=drift_dataset(
                    clean_test, rng, grid_steps=grid, **severity
                ),
                old_classes=all_classes,
                new_classes=all_classes,
            )
            yield ContinualStep(
                index=k,
                split=split,
                name=f"step-{k}: domain drift severity {k + 1}",
                info={"domain": k + 1, **severity},
            )


@dataclass(frozen=True)
class BlurryScenario(SequentialScenario):
    """Class-incremental steps whose class boundaries overlap.

    Online streams rarely partition cleanly: samples of already-seen
    classes keep arriving alongside the new ones.  Each step starts
    from the ``sequential`` layout, then blends a class-stratified
    ``blur_fraction`` of the seen-class pool into the step's training
    stream (labels kept) — the *blurry* continual setting.  Evaluation
    stays disjoint: ``new_test`` holds only the step's new classes.
    """

    blur_fraction: float = 0.25

    name = "blurry"
    #: The *streams* overlap, but evaluation stays disjoint per task.
    disjoint_eval = True

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.blur_fraction <= 1.0:
            raise ConfigError(
                f"blur_fraction must lie in (0, 1], got {self.blur_fraction}"
            )

    def describe(self) -> str:
        """One-line summary for ``repro scenario list``."""
        return (
            f"{self.steps_count} overlapping class-incremental steps "
            f"({self.blur_fraction:.0%} seen-class blend in each stream)"
        )

    def steps(
        self, generator: SyntheticSHD, experiment: ExperimentConfig
    ) -> Iterator[ContinualStep]:
        """Yield class-incremental steps with seen-class minority blends."""
        for step in super().steps(generator, experiment):
            k = step.index
            rng = spawn(experiment.seed, f"scenario:blurry:{k}")
            minority = step.split.pretrain_train.sample_fraction(
                self.blur_fraction, rng
            )
            yield replace(
                step,
                split=replace(
                    step.split, new_train=step.split.new_train.concat(minority)
                ),
                name=f"{step.name} (+{len(minority)} seen-class samples)",
                info={
                    **step.info,
                    "minority_samples": len(minority),
                    "blur_fraction": self.blur_fraction,
                },
            )


@dataclass(frozen=True)
class StreamingScenario:
    """Online/streaming CL: one pass over each task, in small chunks.

    The regime the paper's embedded-edge story actually implies: data
    arrives as a stream, each recording is seen once, and the learner
    is evaluated *anytime* — not only at task boundaries.  The stream
    brings ``tasks`` class-incremental tasks of ``classes_per_task``
    classes each; every task's training data is partitioned — in
    arrival order, single-pass — into ``chunks_per_task`` disjoint
    chunks, and each chunk is one :class:`ContinualStep`.  The step's
    ``new_test`` is the *whole* task's test set, so
    :func:`~repro.scenario.runner.run_scenario`'s after-every-step
    evaluation reads as anytime evaluation of every task seen so far.

    The replay pool of every chunk covers the classes seen before the
    current task (chunks of the task in progress are new data, not
    replay memory), so ``disjoint_eval`` holds and forgetting metrics
    keep their meaning chunk-by-chunk.  Long streams stay lazy: chunk
    datasets materialise one step at a time, and
    :func:`~repro.scenario.runner.run_scenario`'s checkpointing
    (``checkpoint=``/``resume=``) lets a stream killed at chunk k
    continue bitwise-identically.
    """

    tasks: int = 2
    classes_per_task: int = 1
    chunks_per_task: int = 2
    base_classes: int | None = None

    name = "streaming"
    disjoint_eval = True

    def __post_init__(self):
        if self.tasks <= 0:
            raise ConfigError(f"tasks must be positive, got {self.tasks}")
        if self.classes_per_task <= 0:
            raise ConfigError(
                f"classes_per_task must be positive, got {self.classes_per_task}"
            )
        if self.chunks_per_task <= 0:
            raise ConfigError(
                f"chunks_per_task must be positive, got {self.chunks_per_task}"
            )

    def describe(self) -> str:
        """One-line summary for ``repro scenario list``."""
        return (
            f"single-pass stream: {self.tasks} task(s) x "
            f"{self.chunks_per_task} chunk(s), "
            f"{self.classes_per_task} new class(es) per task, anytime eval"
        )

    def steps(
        self, generator: SyntheticSHD, experiment: ExperimentConfig
    ) -> Iterator[ContinualStep]:
        """Yield one step per (task, chunk), lazily, in stream order."""
        base = (
            self.base_classes
            if self.base_classes is not None
            else _default_base_classes(generator, self.tasks, self.classes_per_task)
        )
        needed = base + self.tasks * self.classes_per_task
        if needed > generator.config.num_classes:
            raise DataError(
                f"stream needs {needed} classes but the generator has "
                f"{generator.config.num_classes}"
            )
        if experiment.samples_per_class * self.classes_per_task < self.chunks_per_task:
            raise DataError(
                f"cannot split {experiment.samples_per_class * self.classes_per_task} "
                f"task samples into {self.chunks_per_task} non-empty chunks"
            )
        index = 0
        for t in range(self.tasks):
            task = class_incremental_split(
                generator,
                range(base + t * self.classes_per_task),
                range(base + t * self.classes_per_task, base + (t + 1) * self.classes_per_task),
                experiment.samples_per_class,
                experiment.test_samples_per_class,
            )
            # Single pass: contiguous arrival-order slices, every sample
            # in exactly one chunk.
            bounds = [
                round(c * len(task.new_train) / self.chunks_per_task)
                for c in range(self.chunks_per_task + 1)
            ]
            for c in range(self.chunks_per_task):
                chunk = task.new_train.subset(range(bounds[c], bounds[c + 1]))
                yield ContinualStep(
                    index=index,
                    split=replace(task, new_train=chunk),
                    name=(
                        f"step-{index}: task {t} chunk {c + 1}/"
                        f"{self.chunks_per_task} +classes {list(task.new_classes)}"
                    ),
                    info={
                        "task": t,
                        "chunk": c,
                        "chunk_samples": len(chunk),
                        "task_boundary": c == 0,
                        "new_classes": task.new_classes,
                    },
                )
                index += 1

