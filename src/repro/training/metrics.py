"""Accuracy metrics, continual-learning measures, and training history."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeError

__all__ = [
    "top1_accuracy",
    "EpochRecord",
    "TrainingHistory",
]


def top1_accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact label matches (the paper's Top-1 metric)."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ShapeError(
            f"predictions {predictions.shape} and labels {labels.shape} must align"
        )
    if predictions.size == 0:
        return 0.0
    return float((predictions == labels).mean())


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of training telemetry."""

    epoch: int
    loss: float
    old_task_accuracy: float | None = None
    new_task_accuracy: float | None = None
    overall_accuracy: float | None = None
    learning_rate: float | None = None


@dataclass
class TrainingHistory:
    """Sequence of :class:`EpochRecord` with convenience accessors."""

    records: list[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        """Add one epoch's record to the history."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def losses(self) -> list[float]:
        """Mean minibatch loss of every epoch, in order."""
        return [r.loss for r in self.records]

    @property
    def old_task_curve(self) -> list[float]:
        """Old-task accuracy per epoch (epochs that measured it)."""
        return [r.old_task_accuracy for r in self.records if r.old_task_accuracy is not None]

    @property
    def new_task_curve(self) -> list[float]:
        """New-task accuracy per epoch (epochs that measured it)."""
        return [r.new_task_accuracy for r in self.records if r.new_task_accuracy is not None]

    def final(self) -> EpochRecord:
        """The last epoch's record.

        Raises:
            IndexError: If the history is empty.
        """
        if not self.records:
            raise IndexError("history is empty")
        return self.records[-1]

    def epochs_to_reach(self, accuracy: float, task: str = "old") -> int | None:
        """First epoch whose old/new-task accuracy meets ``accuracy``.

        Returns None if never reached — the time-to-quality measure
        behind the headline 4.88x latency interpretation (Fig. 11b).
        """
        curve = self.old_task_curve if task == "old" else self.new_task_curve
        for i, value in enumerate(curve):
            if value >= accuracy:
                return i
        return None
