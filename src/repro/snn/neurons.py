"""Discrete-time Leaky Integrate-and-Fire dynamics (paper Eq. 1-2).

The continuous dynamics

    tau dV/dt = -(V - Vrst) + Z(t)

are discretized with the standard exponential-Euler step used by the
surrogate-gradient literature (and by the SpikingLR comparator):

    V[t] = beta * V[t-1] * reset(S[t-1]) + I[t]        (hard reset)
    V[t] = beta * V[t-1] - S[t-1] * Vthr + I[t]        (soft reset)
    S[t] = Heaviside(V[t] - Vthr)

with ``beta = exp(-dt / tau)`` and ``Vrst = 0``.  The Heaviside backward
pass uses a surrogate gradient (see :mod:`repro.autograd.surrogate`).
The fused sequence kernels (:mod:`repro.snn.kernels`) run these
dynamics; this module holds their constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autograd.surrogate import SurrogateSpec, fast_sigmoid_surrogate
from repro.errors import ConfigError

__all__ = ["LIFParameters", "resolve_threshold"]


@dataclass(frozen=True)
class LIFParameters:
    """Per-layer neuron constants.

    Attributes:
        beta: Membrane decay per timestep, ``exp(-dt/tau)`` in Eq. (1).
        threshold: Baseline threshold potential ``Vthr``; may be
            overridden per timestep by a threshold controller (Alg. 1).
        reset_mode: ``"zero"`` — hard reset to ``Vrst = 0`` after a
            spike (Eq. 2); ``"subtract"`` — subtract ``Vthr`` (soft
            reset).
        surrogate: Pseudo-derivative family for the backward pass.
    """

    beta: float = 0.95
    threshold: float = 1.0
    reset_mode: str = "zero"
    surrogate: SurrogateSpec = field(default_factory=fast_sigmoid_surrogate)

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        if self.threshold <= 0.0:
            raise ConfigError(f"threshold must be positive, got {self.threshold}")
        if self.reset_mode not in ("zero", "subtract"):
            raise ConfigError(
                f"reset_mode must be 'zero' or 'subtract', got {self.reset_mode!r}"
            )


def resolve_threshold(params: LIFParameters, threshold, dtype=None):
    """Resolve a static effective ``Vthr`` for a sequence kernel.

    Returns ``params.threshold`` when ``threshold`` is None, a float for
    scalar overrides, or an ndarray (cast to ``dtype`` when given) for
    per-neuron overrides.  Raises :class:`ConfigError` on non-positive
    values — a zero or negative threshold makes every neuron fire every
    step and silently destroys training.
    """
    if threshold is None:
        vthr = params.threshold
    elif np.isscalar(threshold):
        vthr = float(threshold)
    else:
        vthr = np.asarray(threshold, dtype=dtype)
    if np.any(np.asarray(vthr) <= 0.0):
        raise ConfigError(f"effective threshold must be positive, got {vthr}")
    return vthr
