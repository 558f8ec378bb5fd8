"""Tests for repro.autograd.functional: the fused readout cross-entropy."""

import numpy as np
import pytest

from gradcheck import gradcheck
from repro.autograd import cross_entropy, tensor
from repro.errors import ShapeError


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestCrossEntropy:
    def test_matches_manual(self, rng):
        logits = rng.standard_normal((4, 5))
        labels = np.array([0, 1, 2, 4])
        loss = cross_entropy(tensor(logits), labels)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        manual = -np.log(probs[np.arange(4), labels]).mean()
        assert loss.item() == pytest.approx(manual, rel=1e-5)

    def test_grad(self, rng):
        labels = np.array([0, 2, 1])
        assert gradcheck(lambda a: cross_entropy(a, labels), [rng.standard_normal((3, 5))])

    def test_perfect_prediction_small_loss(self):
        logits = np.full((2, 3), -20.0)
        logits[0, 1] = 20.0
        logits[1, 2] = 20.0
        loss = cross_entropy(tensor(logits), np.array([1, 2]))
        assert loss.item() < 1e-4

    def test_rejects_bad_logit_rank(self):
        with pytest.raises(ShapeError):
            cross_entropy(tensor(np.zeros(5)), np.array([0]))

    def test_rejects_mismatched_targets(self):
        with pytest.raises(ShapeError):
            cross_entropy(tensor(np.zeros((2, 5))), np.array([0, 1, 2]))

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ShapeError):
            cross_entropy(tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_loss_keeps_logit_dtype(self):
        logits32 = tensor(np.zeros((2, 3), dtype=np.float32))
        assert cross_entropy(logits32, np.array([0, 1])).dtype == np.float32
        logits64 = tensor(np.zeros((2, 3), dtype=np.float64))
        assert cross_entropy(logits64, np.array([0, 1])).dtype == np.float64

    def test_repeated_backward_accumulates(self, rng):
        logits = tensor(rng.standard_normal((3, 4)), requires_grad=True)
        loss = cross_entropy(logits, np.array([0, 1, 3]))
        loss.backward()
        first = logits.grad.copy()
        loss.backward()
        np.testing.assert_allclose(logits.grad, 2 * first, rtol=1e-6)

