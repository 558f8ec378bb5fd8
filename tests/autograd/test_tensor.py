"""Tests for the Tensor weight holder and its reverse walk over layer passes.

The passes here are minimal stand-ins (a scale by a weight); the real
ones, the LIF, readout and loss passes, are pinned to the oracle in
``tests/snn`` and ``tests/training``.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.errors import GradientError, ShapeError


class ScalePass:
    """``out = x * w``: sets ``w.grad`` and hands ``g * w`` down."""

    def __init__(self, x, w, log):
        self.input, self.w, self.log = x, w, log

    def backward(self, g):
        self.log.append(self)
        if self.w.requires_grad:
            self.w.grad = (g * self.input.data).sum(keepdims=True)
        return g * self.w.data if self.input.requires_grad else None


def scale(x, w, log):
    return Tensor(
        x.data * w.data, x.requires_grad or w.requires_grad, lambda: ScalePass(x, w, log)
    )


def weight(value, trainable=True):
    return Tensor(np.array([value], dtype=np.float32), requires_grad=trainable)


@pytest.fixture
def log():
    return []


class TestWalk:
    def test_runs_each_pass_once_last_first(self, log):
        x = Tensor(np.ones(3, dtype=np.float32))
        weights = [weight(2.0), weight(3.0), weight(4.0)]
        out = x
        for w in weights:
            out = scale(out, w, log)
        out.backward(np.ones(3, dtype=np.float32))
        assert [p.w for p in log] == weights[::-1]
        # d/dw_k sum(x * w1 * w2 * w3) = 3 * (product of the others)
        assert [float(w.grad[0]) for w in weights] == [36.0, 24.0, 18.0]

    def test_stops_at_the_first_input_needing_no_gradient(self, log):
        """A frozen front below the learning layers runs no backward."""
        x = Tensor(np.ones(2, dtype=np.float32))
        frozen = weight(5.0, trainable=False)
        front = scale(x, frozen, log)
        assert not front.requires_grad and front._pass is None
        learning = weight(2.0)
        scale(front, learning, log).backward(np.ones(2, dtype=np.float32))
        assert [p.w for p in log] == [learning]
        assert frozen.grad is None
        np.testing.assert_array_equal(learning.grad, [10.0])

    def test_frozen_pass_above_a_learning_one_hands_the_gradient_down(self, log):
        x = Tensor(np.ones(2, dtype=np.float32))
        learning, frozen = weight(2.0), weight(3.0, trainable=False)
        scale(scale(x, learning, log), frozen, log).backward(np.ones(2, dtype=np.float32))
        assert [p.w for p in log] == [frozen, learning]
        assert frozen.grad is None
        np.testing.assert_array_equal(learning.grad, [6.0])

    def test_leaf_input_that_requires_grad_receives_it(self, log):
        x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        w = weight(3.0)
        scale(x, w, log).backward(np.ones(2, dtype=np.float32))
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])
        np.testing.assert_array_equal(w.grad, [3.0])

    def test_pass_outputs_keep_no_gradient(self, log):
        x = Tensor(np.ones(2, dtype=np.float32))
        hidden = scale(x, weight(2.0), log)
        out = scale(hidden, weight(3.0), log)
        out.backward(np.ones(2, dtype=np.float32))
        assert hidden.grad is None and out.grad is None

    def test_deep_chain_does_not_recurse(self, log):
        x = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        out = x
        for _ in range(5000):
            out = scale(out, weight(1.0, trainable=False), log)
        out.backward(np.ones(1, dtype=np.float32))
        assert len(log) == 5000
        np.testing.assert_array_equal(x.grad, [1.0])

    def test_each_backward_reruns_the_passes_and_sets_grads(self, log):
        w = weight(2.0)
        out = scale(Tensor(np.ones(2, dtype=np.float32)), w, log)
        out.backward(np.ones(2, dtype=np.float32))
        out.backward(np.ones(2, dtype=np.float32))
        assert len(log) == 2
        np.testing.assert_array_equal(w.grad, [2.0])  # set, not accumulated

    def test_upstream_gradient_takes_the_tensor_dtype(self, log):
        seen = []
        w = weight(2.0)
        out = scale(Tensor(np.ones(2, dtype=np.float32)), w, log)
        out._pass.backward = lambda g: seen.append(g.dtype)
        out.backward(np.ones(2, dtype=np.float64))
        assert seen == [np.float32]

    def test_scalar_root_defaults_to_unit_gradient(self, log):
        w = weight(2.0)
        out = scale(Tensor(np.array(3.0, dtype=np.float32)), w, log)
        out.backward()
        np.testing.assert_array_equal(w.grad, [3.0])

    def test_leaf_weight_backward_sets_its_own_grad(self):
        w = weight(2.0)
        w.backward(np.array([5.0]))
        np.testing.assert_array_equal(w.grad, [5.0])


class TestErrors:
    def test_backward_on_a_tensor_without_grad_raises(self):
        with pytest.raises(GradientError):
            Tensor([1.0]).backward()

    def test_nonscalar_root_needs_a_gradient(self, log):
        out = scale(Tensor(np.ones(2, dtype=np.float32)), weight(2.0), log)
        with pytest.raises(GradientError, match="explicit gradient"):
            out.backward()

    def test_gradient_shape_must_match(self, log):
        out = scale(Tensor(np.ones(2, dtype=np.float32)), weight(2.0), log)
        with pytest.raises(ShapeError):
            out.backward(np.ones(3, dtype=np.float32))
        assert log == []


class TestWeightHolder:
    def test_zero_grad(self):
        w = weight(1.0)
        w.grad = np.ones(1, dtype=np.float32)
        w.zero_grad()
        assert w.grad is None

    def test_default_dtype_is_float32(self):
        assert Tensor([1, 2, 3]).data.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_dtypes_preserved_without_copy(self, dtype):
        array = np.zeros(3, dtype=dtype)
        assert Tensor(array).data is array

    def test_shape(self):
        assert Tensor(np.zeros((2, 3))).shape == (2, 3)

    def test_pass_kept_only_when_grad_is_required(self, log):
        built = []

        def make_pass():
            built.append(ScalePass(Tensor(np.ones(1)), weight(1.0), log))
            return built[-1]

        assert Tensor([1.0], False, make_pass)._pass is None
        with no_grad():
            assert Tensor([1.0], True, make_pass)._pass is None
        assert not built  # no pass is built for a tensor that drops it
        assert Tensor([1.0], True, make_pass)._pass is built[0]


class TestNoGrad:
    def test_forward_under_no_grad_saves_no_pass(self, log):
        w = weight(2.0)
        with no_grad():
            out = scale(Tensor(np.ones(2, dtype=np.float32)), w, log)
        assert not out.requires_grad and out._pass is None
        with pytest.raises(GradientError):
            out.backward(np.ones(2, dtype=np.float32))
        assert w.requires_grad  # weights made before keep their flag

    def test_no_grad_leaf_does_not_require_grad(self):
        with no_grad():
            assert not Tensor([1.0], requires_grad=True).requires_grad

    def test_no_grad_restores_state(self):
        with no_grad():
            with no_grad():
                pass
            assert not Tensor([1.0], requires_grad=True).requires_grad
        assert Tensor([1.0], requires_grad=True).requires_grad

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert Tensor([1.0], requires_grad=True).requires_grad
