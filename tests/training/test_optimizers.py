"""Tests for the Adam optimizer."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import ConfigError, TrainingError
from repro.training import Adam


def quadratic_param(value=5.0):
    return Tensor(np.array([value], dtype=np.float32), requires_grad=True)


def quadratic_grad(p):
    """Set ``p.grad`` to the gradient of ``sum(p * p)``; return that loss."""
    p.grad = 2.0 * p.data
    return float((p.data * p.data).sum())


def quadratic_step(p, optimizer):
    optimizer.zero_grad()
    loss = quadratic_grad(p)
    optimizer.step()
    return loss


class TestAdam:
    def test_descends_quadratic(self):
        p = quadratic_param()
        opt = Adam([p], learning_rate=0.3)
        losses = [quadratic_step(p, opt) for _ in range(50)]
        assert losses[-1] < losses[0] * 0.01

    def test_first_step_magnitude_is_lr(self):
        # Adam's bias correction makes the first update ~= lr * sign(grad).
        p = quadratic_param(2.0)
        opt = Adam([p], learning_rate=0.1)
        quadratic_step(p, opt)
        assert p.data[0] == pytest.approx(2.0 - 0.1, abs=1e-3)

    def test_state_keyed_by_parameter(self):
        p, q = quadratic_param(1.0), quadratic_param(2.0)
        opt = Adam([p, q], learning_rate=0.1)
        quadratic_step(p, opt)
        # Only p has state; stepping q later must not reuse p's moments.
        opt.zero_grad()
        quadratic_grad(q)
        opt.step()
        assert opt._t[id(p)] == 1
        assert opt._t[id(q)] == 1

    def test_nonfinite_gradient_raises(self):
        p = quadratic_param()
        opt = Adam([p], learning_rate=0.1)
        p.grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(TrainingError):
            opt.step()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("position", [0, 2], ids=["first", "last"])
    @pytest.mark.parametrize("warm", [False, True], ids=["first-step", "after-a-step"])
    def test_failed_step_changes_nothing(self, warm, position, bad):
        """A non-finite gradient anywhere raises before any parameter moves:
        every weight and every m, v and t entry stays as it was."""
        params = [Tensor(np.ones(2, dtype=np.float32), requires_grad=True) for _ in range(3)]
        opt = Adam(params, learning_rate=0.1)
        if warm:
            for p in params:
                p.grad = np.ones(2, dtype=np.float32)
            opt.step()
        weights = [p.data.copy() for p in params]
        moments = [{k: x.copy() for k, x in d.items()} for d in (opt._m, opt._v)]
        steps = dict(opt._t)
        for p in params:
            p.grad = np.ones(2, dtype=np.float32)
        params[position].grad = np.array([bad, 0.0], dtype=np.float32)
        with pytest.raises(TrainingError):
            opt.step()
        for p, before in zip(params, weights):
            np.testing.assert_array_equal(p.data, before)
        for state, before in zip((opt._m, opt._v), moments):
            assert state.keys() == before.keys()
            for key, value in state.items():
                np.testing.assert_array_equal(value, before[key])
        assert opt._t == steps

    def test_skips_gradless_parameters(self):
        p, q = quadratic_param(), quadratic_param(3.0)
        opt = Adam([p, q], learning_rate=0.1)
        quadratic_step(p, opt)  # q never touched by the loss
        assert q.data[0] == 3.0
        assert id(q) not in opt._t

    def test_validation(self):
        with pytest.raises(ConfigError):
            Adam([], learning_rate=0.1)
        with pytest.raises(ConfigError):
            Adam([quadratic_param()], learning_rate=0.0)
        with pytest.raises(ConfigError):
            Adam([quadratic_param()], learning_rate=0.1, beta1=1.0)
        with pytest.raises(ConfigError):
            Adam([quadratic_param()], learning_rate=0.1, beta2=-0.1)
        with pytest.raises(ConfigError):
            Adam([quadratic_param()], learning_rate=0.1, eps=0.0)

    def test_zero_grad(self):
        p = quadratic_param()
        opt = Adam([p], learning_rate=0.1)
        quadratic_grad(p)
        assert p.grad is not None
        opt.zero_grad()
        assert p.grad is None

