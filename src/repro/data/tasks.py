"""Class-incremental task machinery (paper §IV).

The paper's scenario: pre-train the SNN on 19 SHD classes (the *old
tasks*), then continually learn the 20th class (the *new task*) while
replaying latent activations of the old ones.  :func:`make_class_incremental`
builds the four datasets every experiment needs:

- ``pretrain_train`` / ``pretrain_test`` — the 19 old classes,
- ``new_train`` / ``new_test`` — the held-out new class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.data.datasets import SpikeDataset
from repro.data.synthetic_shd import SyntheticSHD
from repro.errors import DataError

__all__ = ["ClassIncrementalSplit", "class_incremental_split", "make_class_incremental"]


@dataclass(frozen=True)
class ClassIncrementalSplit:
    """All datasets of one class-incremental scenario."""

    pretrain_train: SpikeDataset
    pretrain_test: SpikeDataset
    new_train: SpikeDataset
    new_test: SpikeDataset
    old_classes: tuple[int, ...]
    new_classes: tuple[int, ...]

    def describe(self) -> str:
        """One-line human summary of the old/new class split."""
        return (
            f"class-incremental split: {len(self.old_classes)} old classes "
            f"({len(self.pretrain_train)} train / {len(self.pretrain_test)} test), "
            f"{len(self.new_classes)} new ({len(self.new_train)} train / "
            f"{len(self.new_test)} test)"
        )


def make_class_incremental(
    generator: SyntheticSHD,
    samples_per_class: int,
    test_samples_per_class: int,
    num_pretrain_classes: int | None = None,
) -> ClassIncrementalSplit:
    """Build the paper's 19+1 scenario from a dataset generator.

    ``num_pretrain_classes`` defaults to ``num_classes - 1`` — the paper's
    configuration where exactly one class arrives during the CL phase.
    """
    num_classes = generator.config.num_classes
    if num_pretrain_classes is None:
        num_pretrain_classes = num_classes - 1
    if not 0 < num_pretrain_classes < num_classes:
        raise DataError(
            f"num_pretrain_classes must lie in (0, {num_classes}), "
            f"got {num_pretrain_classes}"
        )
    return class_incremental_split(
        generator,
        range(num_pretrain_classes),
        range(num_pretrain_classes, num_classes),
        samples_per_class,
        test_samples_per_class,
    )


def class_incremental_split(
    generator: SyntheticSHD,
    old_classes: Sequence[int],
    new_classes: Sequence[int],
    samples_per_class: int,
    test_samples_per_class: int,
) -> ClassIncrementalSplit:
    """Draw the four datasets of one old/new class split.

    The draws run in a fixed order — old train, old test, new train,
    new test — so a generator sees the same call sequence from every
    scenario that builds a split.
    """
    old, new = list(old_classes), list(new_classes)
    return ClassIncrementalSplit(
        pretrain_train=generator.generate_dataset(
            samples_per_class, split="train", classes=old
        ),
        pretrain_test=generator.generate_dataset(
            test_samples_per_class, split="test", classes=old
        ),
        new_train=generator.generate_dataset(
            samples_per_class, split="train", classes=new
        ),
        new_test=generator.generate_dataset(
            test_samples_per_class, split="test", classes=new
        ),
        old_classes=tuple(old),
        new_classes=tuple(new),
    )
