"""Tests for the Adam optimizer."""

import numpy as np
import pytest

from repro.autograd import tensor
from repro.errors import ConfigError, TrainingError
from repro.training import Adam


def quadratic_param(value=5.0):
    return tensor(np.array([value], dtype=np.float32), requires_grad=True)


def quadratic_step(p, optimizer):
    optimizer.zero_grad()
    loss = (p * p).sum()
    loss.backward()
    optimizer.step()
    return float(loss.data)


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
        (q * q).sum().backward()
        opt.step()
        assert opt._t[id(p)] == 1
        assert opt._t[id(q)] == 1

    def test_nonfinite_gradient_raises(self):
        p = quadratic_param()
        opt = Adam([p], learning_rate=0.1)
        p.grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(TrainingError):
            opt.step()

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
        (p * p).sum().backward()
        assert p.grad is not None
        opt.zero_grad()
        assert p.grad is None

