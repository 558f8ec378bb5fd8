"""Tests for the readout cross-entropy and its closed-form backward."""

import numpy as np
import pytest

import oracle
from gradcheck import gradcheck
from repro.autograd import Tensor, no_grad
from repro.errors import GradientError, ShapeError
from repro.training import readout_cross_entropy


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestValue:
    def test_matches_manual(self, rng):
        logits = rng.standard_normal((4, 5))
        labels = np.array([0, 1, 2, 4])
        loss = readout_cross_entropy(Tensor(logits), labels)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        manual = -np.log(probs[np.arange(4), labels]).mean()
        assert float(loss.data) == pytest.approx(manual, rel=1e-5)

    def test_perfect_prediction_small_loss(self):
        logits = np.full((2, 3), -20.0)
        logits[0, 1] = 20.0
        logits[1, 2] = 20.0
        loss = readout_cross_entropy(Tensor(logits), np.array([1, 2]))
        assert float(loss.data) < 1e-4

    def test_stable_for_huge_logits(self):
        logits = np.array([[1e4, 0.0, -1e4]], dtype=np.float32)
        loss = readout_cross_entropy(Tensor(logits, requires_grad=True), np.array([1]))
        assert np.isfinite(loss.data) and float(loss.data) == pytest.approx(1e4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_and_gradient_keep_logit_dtype(self, dtype):
        logits = Tensor(np.zeros((2, 3), dtype=dtype), requires_grad=True)
        loss = readout_cross_entropy(logits, np.array([0, 1]))
        assert loss.data.dtype == dtype and loss.shape == ()
        loss.backward()
        assert logits.grad.dtype == dtype


class TestValidation:
    def test_rejects_bad_logit_rank(self):
        with pytest.raises(ShapeError):
            readout_cross_entropy(Tensor(np.zeros(5)), np.array([0]))

    def test_rejects_mismatched_targets(self):
        with pytest.raises(ShapeError):
            readout_cross_entropy(Tensor(np.zeros((2, 5))), np.array([0, 1, 2]))

    @pytest.mark.parametrize("labels", [[0, 3], [-1, 0]], ids=["high", "negative"])
    def test_rejects_out_of_range_labels(self, labels):
        with pytest.raises(ShapeError):
            readout_cross_entropy(Tensor(np.zeros((2, 3))), np.array(labels))


class TestBackward:
    def test_gradcheck(self, rng):
        labels = np.array([0, 2, 1])
        assert gradcheck(
            lambda a: readout_cross_entropy(a, labels), [rng.standard_normal((3, 5))]
        )

    def test_gradient_is_softmax_minus_onehot_over_n(self, rng):
        logits = rng.standard_normal((4, 3)).astype(np.float32)
        labels = np.array([2, 0, 1, 1])
        leaf = Tensor(logits, requires_grad=True)
        readout_cross_entropy(leaf, labels).backward()
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(leaf.grad, (probs - np.eye(3)[labels]) / 4, rtol=1e-5)
        np.testing.assert_allclose(leaf.grad.sum(axis=1), 0.0, atol=1e-7)

    def test_oracle_gradient_is_bitwise_the_loss_pass(self, rng):
        """The oracle's plain-numpy loss gradient runs the pass's float ops."""
        logits = rng.standard_normal((6, 4)).astype(np.float32)
        labels = np.array([0, 1, 2, 3, 0, 1])
        leaf = Tensor(logits, requires_grad=True)
        readout_cross_entropy(leaf, labels).backward()
        assert leaf.grad.tobytes() == oracle.cross_entropy_grad(logits, labels).tobytes()

    def test_upstream_gradient_scales_the_logit_gradient(self, rng):
        logits = rng.standard_normal((3, 4))
        labels = np.array([0, 1, 3])
        unit, doubled = (Tensor(logits, requires_grad=True) for _ in range(2))
        readout_cross_entropy(unit, labels).backward()
        readout_cross_entropy(doubled, labels).backward(np.array(2.0))
        np.testing.assert_allclose(doubled.grad, 2.0 * unit.grad)

    def test_backward_sets_rather_than_accumulates(self, rng):
        logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        loss = readout_cross_entropy(logits, np.array([0, 1, 3]))
        loss.backward()
        first = logits.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(logits.grad, first)

    def test_constant_logits_give_a_loss_without_backward(self):
        loss = readout_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1]))
        assert not loss.requires_grad
        with pytest.raises(GradientError):
            loss.backward()

    def test_no_grad_loss_saves_no_pass(self):
        logits = Tensor(np.zeros((2, 3)), requires_grad=True)
        with no_grad():
            loss = readout_cross_entropy(logits, np.array([0, 1]))
        assert not loss.requires_grad and loss._pass is None
