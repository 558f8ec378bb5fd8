"""The fast-sigmoid surrogate gradient of the spike function.

The forward pass of a spiking neuron is the non-differentiable Heaviside
step ``S = 1[V - Vthr > 0]`` (paper Fig. 5a).  Surrogate-gradient learning
replaces the step's zero-almost-everywhere derivative with a smooth
pseudo-derivative during the backward pass (Fig. 5b): the LIF layer
pass's backward evaluates it on ``V - Vthr`` over the whole sequence.
The paper — and the SpikingLR comparator it builds on — uses the *fast
sigmoid*:

    dS/dx ~= 1 / (SURROGATE_SCALE * |x| + 1)^2
"""

from __future__ import annotations

import numpy as np

__all__ = ["fast_sigmoid_surrogate"]

#: The fast sigmoid's slope (Fig. 5b), the SpikingLR reference value.
SURROGATE_SCALE = 25.0


def fast_sigmoid_surrogate(x: np.ndarray) -> np.ndarray:
    """The pseudo-derivative ``1 / (SURROGATE_SCALE*|x| + 1)^2`` at ``x = V - Vthr``.

    Elementwise in ``x``'s dtype, into a fresh array (``x`` is not
    written), so one call over a ``[T, B, N]`` stack gives each step the
    bits a per-step call would.
    """
    # In place, op for op the rounding of 1.0 / (scale*|x| + 1.0) ** 2.
    out = np.abs(x, out=np.empty(np.shape(x), np.result_type(x, SURROGATE_SCALE)))
    out *= SURROGATE_SCALE
    out += 1.0
    np.square(out, out=out)
    return np.divide(1.0, out, out=out)
