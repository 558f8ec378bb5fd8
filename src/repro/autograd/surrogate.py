"""Surrogate-gradient families for the spike function.

The forward pass of a spiking neuron is the non-differentiable Heaviside
step ``S = 1[V - Vthr > 0]`` (paper Fig. 5a).  Surrogate-gradient learning
replaces the step's zero-almost-everywhere derivative with a smooth
pseudo-derivative during the backward pass (Fig. 5b): the LIF layer
pass's backward evaluates it on ``V - Vthr`` over the whole sequence.
The paper — and the SpikingLR comparator it builds on — uses the *fast
sigmoid*:

    dS/dx ~= 1 / (scale * |x| + 1)^2

We also provide the arctan, boxcar and straight-through families so the
ablation benches can compare them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "SurrogateSpec",
    "fast_sigmoid_surrogate",
    "atan_surrogate",
    "boxcar_surrogate",
    "straight_through_surrogate",
]


@dataclass(frozen=True)
class SurrogateSpec:
    """A named surrogate-gradient family with its pseudo-derivative.

    Attributes
    ----------
    name:
        Identifier used in configs and reports.
    derivative:
        Maps the pre-activation ``x = V - Vthr`` to the pseudo-derivative
        values used in place of the Heaviside derivative.
    """

    name: str
    derivative: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.derivative(x)


def fast_sigmoid_surrogate(scale: float = 25.0) -> SurrogateSpec:
    """Fast-sigmoid surrogate (paper Fig. 5b): ``1 / (scale*|x| + 1)^2``.

    ``scale=25`` follows the SpikingLR reference configuration.
    """
    if scale <= 0:
        raise ConfigError(f"surrogate scale must be positive, got {scale}")

    def derivative(x: np.ndarray, scale=float(scale)) -> np.ndarray:
        # In place, op for op the rounding of 1.0 / (scale*|x| + 1.0) ** 2.
        out = np.abs(x, out=np.empty(np.shape(x), np.result_type(x, scale)))
        out *= scale
        out += 1.0
        np.square(out, out=out)
        return np.divide(1.0, out, out=out)

    return SurrogateSpec(name=f"fast_sigmoid(scale={scale:g})", derivative=derivative)


def atan_surrogate(alpha: float = 2.0) -> SurrogateSpec:
    """Arctan surrogate: ``alpha / (2 * (1 + (pi/2 * alpha * x)^2))``."""
    if alpha <= 0:
        raise ConfigError(f"surrogate alpha must be positive, got {alpha}")

    def derivative(x: np.ndarray, alpha=float(alpha)) -> np.ndarray:
        return alpha / (2.0 * (1.0 + (np.pi / 2.0 * alpha * x) ** 2))

    return SurrogateSpec(name=f"atan(alpha={alpha:g})", derivative=derivative)


def boxcar_surrogate(width: float = 0.5) -> SurrogateSpec:
    """Boxcar surrogate: constant ``1/width`` inside ``|x| < width/2``."""
    if width <= 0:
        raise ConfigError(f"surrogate width must be positive, got {width}")

    def derivative(x: np.ndarray, width=float(width)) -> np.ndarray:
        return (np.abs(x) < width / 2.0).astype(x.dtype) / width

    return SurrogateSpec(name=f"boxcar(width={width:g})", derivative=derivative)


def straight_through_surrogate() -> SurrogateSpec:
    """Straight-through estimator: pass the gradient unchanged."""

    def derivative(x: np.ndarray) -> np.ndarray:
        return np.ones_like(x)

    return SurrogateSpec(name="straight_through", derivative=derivative)
