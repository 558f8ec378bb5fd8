"""The numpy reference sweeps: the contract the C kernels are pinned to.

The fused kernels (:mod:`repro.snn.kernels`) hand every layer pass's
time-recurrent sweeps (LIF forward and reverse, leaky-readout forward
and reverse) to :func:`repro.snn.backends.active`, which runs the C
kernels of :mod:`~repro.snn.backends.cffi_c` where it can and these
functions otherwise.  These functions *are* the semantics: the forward
recurrence runs the same elementwise operations in the same order as
the per-timestep formulation (kept readable as the plain-numpy test
oracle, ``tests/snn/oracle.py``), and the reverse sweep is the
hand-derived BPTT documented in :mod:`repro.snn.kernels`.  The C kernels
are pinned to these trajectories bitwise by their self-check and by the
parity suite (``tests/snn/test_backends.py``).

**What a sweep receives.**  Projected currents: the stacked feedforward
GEMM (``x @ w_ff``) and the weight-gradient reductions run on numpy in
:mod:`repro.snn.kernels`, because BLAS accumulation order is the bitwise
anchor of the whole reproduction and no naive loop reproduces it.  A
sweep executes only the per-timestep recurrence: elementwise state
updates plus the per-step recurrent projection, which is the call
numpy's ``matmul`` makes into numpy's BLAS (the C kernels make the same
call from C).

**Bitwise discipline.**  The C kernels must produce the *same training
trajectories* as these sweeps, not just close ones: spiking networks are
chaotic, so a one-ulp gradient difference grows into different spike
rasters within a few optimizer steps.  Every elementwise accumulation
below therefore replicates the association order of the per-step oracle
exactly (float addition commutes but does not associate):

- ``gS[t] = (upstream + reset-path) + recurrent-path``,
- ``gV[t] = surrogate-path + decay-path``,
- partial products mirror the oracle, e.g. the reset path is
  ``(gV * beta) * V[t-1]`` — never ``gV * (beta * V[t-1])``.

Products stay on BLAS, whose summation order is not the oracle's: the
weight gradients are one GEMM each (:mod:`repro.snn.kernels`), so they
match the oracle to a stated tolerance while forward spikes stay bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.snn.threshold import ThresholdController

__all__ = [
    "SweepSpec",
    "lif_forward_sweep",
    "lif_reverse_sweep",
    "readout_forward_sweep",
    "readout_backward_sweep",
]


@dataclass(frozen=True)
class SweepSpec:
    """Per-sequence neuron constants of one sweep.

    One spec describes a whole ``[T, B, N]`` sweep of hard-reset (Eq. 2)
    neurons.  A threshold that changes mid-sequence is not a constant:
    the forward sweep takes the
    :class:`~repro.snn.threshold.ThresholdController` itself and returns
    the thresholds it used.  The reverse sweep reads no threshold.

    Attributes:
        beta: Membrane decay per timestep.
        vthr: The static threshold ``params.threshold``, or ``None``
            under a controller, whose ``value`` the sweep starts at.
    """

    beta: float
    vthr: float | None


def lif_forward_sweep(
    ff: np.ndarray,
    w_rec: np.ndarray,
    spec: SweepSpec,
    controller: ThresholdController | None = None,
) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """The LIF forward recurrence over a whole sequence.

    Runs the same elementwise operations in the same order as ``T``
    steps of the per-timestep oracle on the already-projected feedforward
    currents ``ff`` ``[T, B, N]`` (the stacked GEMM is bitwise-equal to
    the per-step ``x[t] @ w_ff``), with recurrent weights ``w_rec``
    ``[N, N]``.

    Under a dynamic threshold ``controller`` (Alg. 1) the sweep starts
    at ``controller.value``; after step ``t`` it calls
    ``controller.step(t, counts, counts * t)`` exactly once, with
    ``counts`` the step's spikes summed over the batch (per neuron), and
    the returned value (scalar or ``[N]``) is the threshold of step
    ``t + 1``.

    Returns:
        ``(membrane, spikes, vthr)``: the ``[T, B, N]`` stacks plus the
        threshold the sweep used — ``spec.vthr`` itself for a static
        sweep, or the ``[T, N]`` per-step record (sweep dtype) under a
        controller.
    """
    timesteps, batch, n_out = ff.shape
    dtype = ff.dtype
    vthr = spec.vthr
    beta = spec.beta
    membrane = np.empty((timesteps, batch, n_out), dtype=dtype)
    spikes = np.empty((timesteps, batch, n_out), dtype=dtype)
    v = np.zeros((batch, n_out), dtype=dtype)
    s = np.zeros((batch, n_out), dtype=dtype)
    thresholds = None
    if controller is not None:
        thresholds = np.empty((timesteps, n_out), dtype=dtype)
        vthr = controller.value
    for t in range(timesteps):
        if thresholds is not None:
            # The dtype cast the oracle applies to the controller's value.
            thresholds[t] = vthr
            vthr = thresholds[t]
        current = ff[t] + s @ w_rec
        v = v * (1.0 - s) * beta + current
        s = (v - vthr > 0.0).astype(dtype)
        membrane[t] = v
        spikes[t] = s
        if controller is not None:
            counts = s.sum(axis=0)
            vthr = controller.step(t, counts, counts * t)
    return membrane, spikes, (spec.vthr if thresholds is None else thresholds)


def lif_reverse_sweep(
    g_spikes: np.ndarray,
    surrogate: np.ndarray,
    membrane: np.ndarray,
    spikes: np.ndarray,
    w_rec: np.ndarray,
    spec: SweepSpec,
) -> np.ndarray:
    """The LIF reverse BPTT sweep.

    Returns ``gI`` — the gradient of the loss w.r.t. the projected input
    current at every timestep — from which :mod:`repro.snn.kernels`
    derives all weight/input gradients as GEMMs.  ``surrogate`` is the
    precomputed fast-sigmoid derivative at every timestep, the only
    place the threshold enters the backward.  See the module docstring
    for the association-order rules every accumulation obeys.
    """
    timesteps = spikes.shape[0]
    beta = spec.beta
    # One contiguous copy (BLAS's no-trans path); the C executor's too.
    w_rec_t = np.ascontiguousarray(w_rec.T)
    g_current = np.empty_like(spikes)
    state_shape = spikes.shape[1:]
    dtype = spikes.dtype
    # Preallocated scratch: the loop runs T times over small [B, N]
    # arrays, so per-step allocation overhead is comparable to the
    # arithmetic itself.  in-place ufuncs keep op order (hence bits)
    # identical.
    gv_beta = np.empty(state_shape, dtype)
    gv_carry = np.empty(state_shape, dtype)  # decay path into gV[t], from t+1
    gs_reset = np.empty(state_shape, dtype)  # reset path into gS[t], from t+1
    gs_rec = np.empty(state_shape, dtype)  # recurrent path into gS[t], from t+1
    have_carry = False
    for t in range(timesteps - 1, -1, -1):
        gv = g_current[t]  # dL/dV[t] = dL/dI[t], written in place
        if have_carry:
            np.add(g_spikes[t], gs_reset, out=gv)  # gs = upstream + reset path
            np.add(gv, gs_rec, out=gv)  # ... + recurrent path
            np.multiply(gv, surrogate[t], out=gv)
            np.add(gv, gv_carry, out=gv)
        else:
            np.multiply(g_spikes[t], surrogate[t], out=gv)
        if t > 0:
            np.multiply(gv, beta, out=gv_beta)
            np.multiply(gv_beta, membrane[t - 1], out=gs_reset)
            np.negative(gs_reset, out=gs_reset)
            np.subtract(1.0, spikes[t - 1], out=gv_carry)
            np.multiply(gv_beta, gv_carry, out=gv_carry)
            np.matmul(gv, w_rec_t, out=gs_rec)
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

