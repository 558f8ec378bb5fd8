"""The numpy reference executor — the bitwise anchor of every backend.

This module *is* the semantics of the backend contract: the forward
recurrence runs the same elementwise operations in the same order as
``T`` applications of :func:`repro.snn.neurons.lif_step` /
:func:`~repro.snn.neurons.cuba_lif_step`, and the reverse sweep is the
hand-derived BPTT documented in :mod:`repro.snn.kernels`.  Every other
backend is pinned to these trajectories bitwise by the parity suite
(``tests/snn/test_backends.py``).

**Bitwise discipline.**  Fused and per-step paths must produce the
*same training trajectories*, not just close ones: spiking networks are
chaotic, so a one-ulp gradient difference grows into different spike
rasters within a few optimizer steps and breaks trajectory
reproducibility between the two paths.  Every accumulation below
therefore replicates the association order of the per-step tape exactly
(float addition commutes but does not associate):

- ``gS[t] = (upstream + reset-path) + recurrent-path``,
- ``gV[t] = surrogate-path + decay-path``,
- partial products mirror the tape, e.g. hard reset uses
  ``(gV * beta) * V[t-1]`` — never ``gV * (beta * V[t-1])``.
"""

from __future__ import annotations

import numpy as np

from repro.snn.backends.base import SequenceExecutor, SweepSpec, register_backend

__all__ = ["NumpyExecutor"]


def lif_forward_sweep(
    ff: np.ndarray, w_rec: np.ndarray | None, spec: SweepSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Forward recurrence shared by the LIF and CuBa kernels.

    Runs the same elementwise operations in the same order as ``T``
    applications of :func:`repro.snn.neurons.lif_step` /
    :func:`~repro.snn.neurons.cuba_lif_step` on the already-projected
    feedforward currents ``ff`` (the stacked GEMM is bitwise-equal to
    the per-step ``x[t] @ w_ff``).  Returns ``(membrane, spikes)``
    stacks ``[T, B, N]``.
    """
    timesteps, batch, n_out = ff.shape
    dtype = ff.dtype
    alpha = spec.alpha
    vthr = spec.vthr
    beta = spec.beta
    hard = spec.hard
    membrane = np.empty((timesteps, batch, n_out), dtype=dtype)
    spikes = np.empty((timesteps, batch, n_out), dtype=dtype)
    v = np.zeros((batch, n_out), dtype=dtype)
    s = np.zeros((batch, n_out), dtype=dtype)
    syn = np.zeros((batch, n_out), dtype=dtype) if alpha is not None else None
    for t in range(timesteps):
        current = ff[t] if w_rec is None else ff[t] + s @ w_rec
        if alpha is not None:
            syn = syn * alpha + current
            current = syn
        if hard:
            v = v * (1.0 - s) * beta + current
        else:
            v = v * beta - s * vthr + current
        s = (v - vthr > 0.0).astype(dtype)
        membrane[t] = v
        spikes[t] = s
    return membrane, spikes


def lif_reverse_sweep(
    g_spikes: np.ndarray,
    surrogate: np.ndarray,
    membrane: np.ndarray,
    spikes: np.ndarray,
    w_rec: np.ndarray | None,
    spec: SweepSpec,
) -> np.ndarray:
    """Reverse BPTT sweep shared by the LIF and CuBa kernels.

    Returns ``gI`` — the gradient of the loss w.r.t. the projected input
    current at every timestep — from which all weight/input gradients
    follow as matmuls (on the reference path, not in the executor).  See
    the module docstring for the association-order rules every
    accumulation obeys.
    """
    timesteps = spikes.shape[0]
    beta = spec.beta
    vthr = spec.vthr
    alpha = spec.alpha
    hard = spec.hard
    w_rec_t = None if w_rec is None else w_rec.T
    g_current = np.empty_like(spikes)
    state_shape = spikes.shape[1:]
    dtype = spikes.dtype
    # Preallocated scratch: the loop runs T times over small [B, N]
    # arrays, so per-step allocation overhead is comparable to the
    # arithmetic itself.  in-place ufuncs keep op order (hence bits)
    # identical.
    gv = np.empty(state_shape, dtype)  # dL/dV[t]
    gv_beta = np.empty(state_shape, dtype)
    gv_carry = np.empty(state_shape, dtype)  # decay path into gV[t], from t+1
    gs_reset = np.empty(state_shape, dtype)  # reset path into gS[t], from t+1
    gs_rec = np.empty(state_shape, dtype)  # recurrent path into gS[t], from t+1
    gj_carry = np.empty(state_shape, dtype)  # synaptic decay into gJ[t] (CuBa)
    have_carry = False
    for t in range(timesteps - 1, -1, -1):
        gj = g_current[t]  # written in place below
        if have_carry:
            np.add(g_spikes[t], gs_reset, out=gv)  # gs = upstream + reset path
            if w_rec_t is not None:
                np.add(gv, gs_rec, out=gv)  # ... + recurrent path
            np.multiply(gv, surrogate[t], out=gv)
            np.add(gv, gv_carry, out=gv)
        else:
            np.multiply(g_spikes[t], surrogate[t], out=gv)
        if alpha is not None:
            # J[t] feeds V[t] directly and J[t+1] through the alpha decay.
            if have_carry:
                np.add(gv, gj_carry, out=gj)
            else:
                gj[...] = gv
            np.multiply(gj, alpha, out=gj_carry)
        else:
            gj[...] = gv
        if t > 0:
            if hard:
                np.multiply(gv, beta, out=gv_beta)
                np.multiply(gv_beta, membrane[t - 1], out=gs_reset)
                np.negative(gs_reset, out=gs_reset)
                np.subtract(1.0, spikes[t - 1], out=gv_carry)
                np.multiply(gv_beta, gv_carry, out=gv_carry)
            else:
                np.negative(gv, out=gs_reset)
                np.multiply(gs_reset, vthr, out=gs_reset)
                np.multiply(gv, beta, out=gv_carry)
            if w_rec_t is not None:
                np.matmul(gj, w_rec_t, out=gs_rec)
            have_carry = True
    return g_current


def readout_forward_sweep(projected: np.ndarray, beta: float) -> np.ndarray:
    """Leaky-integrator forward: trajectory of ``m[t] = m[t-1]*beta + p[t]``."""
    trajectory = np.empty_like(projected)
    membrane = np.zeros(projected.shape[1:], dtype=projected.dtype)
    for t in range(projected.shape[0]):
        membrane = membrane * beta + projected[t]
        trajectory[t] = membrane
    return trajectory


def readout_backward_sweep(g_trajectory: np.ndarray, beta: float) -> np.ndarray:
    """Reverse sweep of the readout integrator.

    Same bitwise discipline as :func:`lif_reverse_sweep`: the membrane
    adjoint associates as ``(upstream + decay-path)``.
    """
    timesteps = g_trajectory.shape[0]
    g_membrane = np.empty_like(g_trajectory)
    carry = None
    for t in range(timesteps - 1, -1, -1):
        gm = g_trajectory[t] if carry is None else g_trajectory[t] + carry
        g_membrane[t] = gm
        carry = gm * beta
    return g_membrane


class NumpyExecutor(SequenceExecutor):
    """The always-available reference executor (raw numpy)."""

    name = "numpy"
    parity = "bitwise"
    priority = 30

    def availability(self) -> tuple[bool, str]:
        """Always available — numpy is the library's only hard dependency."""
        return True, "reference executor (numpy is always available)"

    def lif_forward(self, ff, w_rec, spec):
        """Run the reference forward recurrence (module docstring)."""
        return lif_forward_sweep(ff, w_rec, spec)

    def lif_backward(self, g_spikes, surrogate, membrane, spikes, w_rec, spec):
        """Run the reference reverse BPTT sweep (module docstring)."""
        return lif_reverse_sweep(g_spikes, surrogate, membrane, spikes, w_rec, spec)

    def readout_forward(self, projected, beta):
        """Run the reference readout integration."""
        return readout_forward_sweep(projected, beta)

    def readout_backward(self, g_trajectory, beta):
        """Run the reference readout reverse sweep."""
        return readout_backward_sweep(g_trajectory, beta)


register_backend(NumpyExecutor())
