"""Gradient-descent optimizers over :class:`~repro.autograd.Tensor` parameters.

Optimizers hold references to parameter tensors; ``step()`` consumes the
``grad`` fields written by ``backward()`` and ``zero_grad()`` clears them.
State (Adam moments) is keyed by parameter identity, so freezing /
unfreezing layers between phases does not corrupt it.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.autograd import Tensor
from repro.errors import ConfigError, TrainingError

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base class: parameter bookkeeping and the public interface."""

    def __init__(self, parameters: Iterable[Tensor], learning_rate: float):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ConfigError("optimizer needs at least one parameter")
        if learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)

    def zero_grad(self) -> None:
        """Clear every parameter's accumulated gradient."""
        for p in self.parameters:
            p.grad = None

    def step(self) -> None:
        """Apply one update from the current gradients (subclasses)."""
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) — the paper's training optimizer."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(parameters, learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        if eps <= 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t: dict[int, int] = {}

    def step(self) -> None:
        """One bias-corrected Adam update over parameters with gradients.

        Every gradient is checked before any parameter moves, so a
        failed step leaves every weight and moment as it was.

        Raises:
            TrainingError: If any gradient is non-finite.
        """
        live = [p for p in self.parameters if p.grad is not None]
        if not all(np.all(np.isfinite(p.grad)) for p in live):
            raise TrainingError(
                "non-finite gradient encountered; lower the learning rate "
                "or check the loss"
            )
        for p in live:
            key = id(p)
            t = self._t.get(key, 0) + 1
            m = self._m.get(key)
            v = self._v.get(key)
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
            m = self.beta1 * m + (1.0 - self.beta1) * p.grad
            v = self.beta2 * v + (1.0 - self.beta2) * (p.grad * p.grad)
            self._m[key], self._v[key], self._t[key] = m, v, t
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p.data = p.data - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
