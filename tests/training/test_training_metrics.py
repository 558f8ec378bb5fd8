"""Tests for metrics and training history."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.training import (
    EpochRecord,
    TrainingHistory,
    top1_accuracy,
)


class TestAccuracy:
    def test_top1(self):
        assert top1_accuracy(np.array([1, 2, 3]), np.array([1, 2, 0])) == pytest.approx(2 / 3)

    def test_top1_empty(self):
        assert top1_accuracy(np.array([]), np.array([])) == 0.0

    def test_top1_shape_mismatch(self):
        with pytest.raises(ShapeError):
            top1_accuracy(np.array([1]), np.array([1, 2]))


class TestHistory:
    def make_history(self):
        h = TrainingHistory()
        for i, (old, new) in enumerate([(0.2, 0.1), (0.5, 0.6), (0.8, 0.9)]):
            h.append(EpochRecord(epoch=i, loss=1.0 - 0.2 * i,
                                 old_task_accuracy=old, new_task_accuracy=new))
        return h

    def test_curves(self):
        h = self.make_history()
        assert h.old_task_curve == [0.2, 0.5, 0.8]
        assert h.new_task_curve == [0.1, 0.6, 0.9]
        assert h.losses == pytest.approx([1.0, 0.8, 0.6])

    def test_final_and_len(self):
        h = self.make_history()
        assert len(h) == 3
        assert h.final().epoch == 2

    def test_final_empty_raises(self):
        with pytest.raises(IndexError):
            TrainingHistory().final()

    def test_epochs_to_reach(self):
        h = self.make_history()
        assert h.epochs_to_reach(0.5, task="old") == 1
        assert h.epochs_to_reach(0.9, task="new") == 2
        assert h.epochs_to_reach(0.99, task="old") is None

    def test_iteration(self):
        assert [r.epoch for r in self.make_history()] == [0, 1, 2]

