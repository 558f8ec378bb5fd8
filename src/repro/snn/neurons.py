"""Discrete-time Leaky Integrate-and-Fire dynamics (paper Eq. 1-2).

The continuous dynamics

    tau dV/dt = -(V - Vrst) + Z(t)

are discretized with the standard exponential-Euler step used by the
surrogate-gradient literature (and by the SpikingLR comparator):

    V[t] = beta * V[t-1] * reset(S[t-1]) + I[t]        (hard reset, Eq. 2)
    S[t] = Heaviside(V[t] - Vthr)

with ``beta = exp(-dt / tau)``, ``Vrst = 0`` and ``reset(s) = 1 - s``.
The Heaviside backward pass uses the fast-sigmoid surrogate gradient
(see :mod:`repro.autograd.surrogate`).  The fused sequence kernels
(:mod:`repro.snn.kernels`) run these dynamics; this module holds their
constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["LIFParameters"]


@dataclass(frozen=True)
class LIFParameters:
    """Per-layer neuron constants.

    Attributes:
        beta: Membrane decay per timestep, ``exp(-dt/tau)`` in Eq. (1).
        threshold: Baseline threshold potential ``Vthr``; a threshold
            controller (Alg. 1) replaces it per timestep when given.
    """

    beta: float = 0.95
    threshold: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        if self.threshold <= 0.0:
            raise ConfigError(f"threshold must be positive, got {self.threshold}")
