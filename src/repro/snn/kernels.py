"""Fused sequence kernels for the SNN time loop.

The reference simulation path (:mod:`repro.snn.layers`) advances the
neuron state one timestep at a time through the autograd tape: every
decay, reset, matmul and Heaviside records its own node, so a ``T``-step
pass over a layer costs thousands of Python-level graph objects.  These
kernels collapse the entire ``[T, B, N]`` time loop into **one** tape
node each (via :class:`repro.autograd.Function`): the forward runs the
recurrence over preallocated state arrays, and the backward is
hand-derived BPTT through the decay/reset/recurrent/surrogate path.

*Which executor* runs the recurrence is pluggable: this module computes
the GEMMs (the stacked feedforward projection and the weight-gradient
reductions — the bitwise anchor, always numpy) and hands the
time-recurrent sweeps to the backend selected via ``REPRO_BACKEND``
(see :mod:`repro.snn.backends`).  The numpy reference executor runs the
same elementwise operations in the same order as the per-step path, so
fused and per-step paths are interchangeable; the C executor replicates
that association order bitwise in compiled code.  The dispatch in :mod:`repro.snn.layers` uses the
fused kernels whenever the effective threshold is static for the whole
sequence (``None`` or a :class:`~repro.snn.threshold.StaticThreshold`)
and falls back to the per-step path for dynamic
:class:`~repro.snn.threshold.ThresholdController` policies (Alg. 1),
whose per-timestep feedback genuinely needs the step loop.

Hand-derived BPTT (hard reset, recurrent; soft reset swaps the two
reset partials)::

    forward:   I[t] = x[t] @ Wff + S[t-1] @ Wrec
               V[t] = beta * V[t-1] * (1 - S[t-1]) + I[t]
               S[t] = H(V[t] - vthr)

    reverse:   gS[t] = dL/dS[t] + Wrec^T-path + reset-path   (from t+1)
               gV[t] = gS[t] * surrogate'(V[t] - vthr) + beta * (1 - S[t]) * gV[t+1]
               gI[t] = gV[t]
               reset-path(t-1)     = -beta * V[t-1] * gV[t]     (hard)
                                   = -vthr * gV[t]              (soft)
               Wrec^T-path(t-1)    = gI[t] @ Wrec^T
               gX[t]  = gI[t] @ Wff^T
               gWff   = sum_t x[t]^T @ gI[t]
               gWrec  = sum_t S[t-1]^T @ gI[t]

The bitwise-discipline rules the reference sweeps obey (and bitwise
backends must replicate) live in :mod:`repro.snn.backends.numpy_ref`
and are documented in ``docs/reproducibility.md``.

Set ``REPRO_FUSED_KERNELS=0`` to force the per-step reference everywhere
(useful when bisecting a numerical question back to first principles).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.autograd import Tensor
from repro.autograd.function import Function
from repro.config import env_switch
from repro.errors import ConfigError, ShapeError
from repro.snn import backends
from repro.snn.backends import SweepSpec
from repro.snn.neurons import LIFParameters, resolve_threshold

__all__ = [
    "lif_sequence",
    "cuba_lif_sequence",
    "leaky_readout_sequence",
    "fused_enabled",
]


def fused_enabled() -> bool:
    """Whether the fused kernels are globally enabled.

    Controlled by the ``REPRO_FUSED_KERNELS`` environment variable;
    anything other than ``"0"``/``"false"``/``"off"`` (or unset) enables
    them.  Layers consult this at every forward, so flipping the
    variable mid-process takes effect immediately.
    """
    return env_switch("REPRO_FUSED_KERNELS")


def _check_sequence_args(x: np.ndarray, w_ff: np.ndarray, w_rec) -> None:
    if x.ndim != 3:
        raise ShapeError(f"expected [T, B, n_in] input, got shape {x.shape}")
    if w_ff.ndim != 2 or x.shape[2] != w_ff.shape[0]:
        raise ShapeError(
            f"feedforward weights {w_ff.shape} do not match input features {x.shape[2]}"
        )
    if w_rec is not None and w_rec.shape != (w_ff.shape[1], w_ff.shape[1]):
        raise ShapeError(
            f"recurrent weights must be square [{w_ff.shape[1]}, {w_ff.shape[1]}], "
            f"got {w_rec.shape}"
        )


def _sequence_weight_grads(ctx, x, w_ff, w_rec, spikes, g_current):
    """Input/weight gradients from ``gI``, in the tape's summation order.

    The per-step tape accumulates the feedforward weight gradient
    forward-in-time for feedforward-only graphs but reverse-in-time when
    a recurrent weight is present (the recurrent edge changes the
    reverse topological order) — replicated here for bitwise parity.
    These are pure GEMM reductions, so they stay on the numpy anchor for
    every backend.  Gradients whose ``ctx.needs_input_grad`` flag is
    False are skipped.
    """
    timesteps = spikes.shape[0]
    needs = ctx.needs_input_grad
    gx = g_current @ w_ff.T if needs[0] else None
    gw_ff = None
    if needs[1]:
        scratch = np.empty(w_ff.shape, dtype=g_current.dtype)
        order = range(timesteps - 1, -1, -1) if w_rec is not None else range(timesteps)
        for t in order:
            if gw_ff is None:
                gw_ff = x[t].T @ g_current[t]
            else:
                np.matmul(x[t].T, g_current[t], out=scratch)
                np.add(gw_ff, scratch, out=gw_ff)
    gw_rec = None
    if w_rec is not None and needs[2]:
        scratch = np.empty(w_rec.shape, dtype=g_current.dtype)
        for t in range(timesteps - 1, 0, -1):
            if gw_rec is None:
                gw_rec = spikes[t - 1].T @ g_current[t]
            else:
                np.matmul(spikes[t - 1].T, g_current[t], out=scratch)
                np.add(gw_rec, scratch, out=gw_rec)
        if gw_rec is None:
            # T == 1: the recurrent weight never fired (S[-1] = 0), but
            # it is still a differentiable input — its gradient is zero,
            # not absent.
            gw_rec = np.zeros(w_rec.shape, dtype=g_current.dtype)
    return gx, gw_ff, gw_rec


def _lif_spec(params: LIFParameters, vthr, alpha: float | None) -> SweepSpec:
    return SweepSpec(
        beta=params.beta,
        vthr=vthr,
        hard=params.reset_mode == "zero",
        alpha=alpha,
    )


class _LIFSequence(Function):
    """Single tape node for a full LIF layer pass (module docstring)."""

    @staticmethod
    def forward(ctx, x, w_ff, w_rec, params, vthr):
        """Run the T-step membrane/spike sweep on the active backend."""
        executor = backends.active()
        spec = _lif_spec(params, vthr, alpha=None)
        obs.count("kernel.calls", backend=executor.name, kernel="lif_forward")
        with obs.span("kernel.lif_forward", category="kernel", backend=executor.name):
            membrane, spikes = executor.lif_forward(x @ w_ff, w_rec, spec)
        ctx.save_for_backward(x, w_ff, w_rec, membrane, spikes)
        ctx.params = params
        ctx.spec = spec
        # The executor is pinned at forward time so backward runs on the
        # same backend even if REPRO_BACKEND flips mid-graph.
        ctx.executor = executor
        return spikes

    @staticmethod
    def backward(ctx, g_spikes):
        """Hand-derived BPTT, bitwise-identical to the per-step tape."""
        x, w_ff, w_rec, membrane, spikes = ctx.saved
        surrogate = ctx.params.surrogate.derivative(membrane - ctx.spec.vthr)
        obs.count("kernel.calls", backend=ctx.executor.name, kernel="lif_backward")
        with obs.span("kernel.lif_backward", category="kernel", backend=ctx.executor.name):
            g_current = ctx.executor.lif_backward(
                g_spikes, surrogate, membrane, spikes, w_rec, ctx.spec
            )
        return _sequence_weight_grads(ctx, x, w_ff, w_rec, spikes, g_current) + (
            None,
            None,
        )


class _CubaLIFSequence(Function):
    """LIF sequence with a synaptic low-pass current state (CuBa)."""

    @staticmethod
    def forward(ctx, x, w_ff, w_rec, params, alpha, vthr):
        """Run the CuBa sweep (synaptic filter + membrane) on the backend."""
        executor = backends.active()
        spec = _lif_spec(params, vthr, alpha=alpha)
        obs.count("kernel.calls", backend=executor.name, kernel="cuba_lif_forward")
        with obs.span("kernel.cuba_lif_forward", category="kernel", backend=executor.name):
            membrane, spikes = executor.lif_forward(x @ w_ff, w_rec, spec)
        ctx.save_for_backward(x, w_ff, w_rec, membrane, spikes)
        ctx.params = params
        ctx.spec = spec
        ctx.executor = executor
        return spikes

    @staticmethod
    def backward(ctx, g_spikes):
        """BPTT through the CuBa recurrences, bitwise vs the per-step tape."""
        x, w_ff, w_rec, membrane, spikes = ctx.saved
        surrogate = ctx.params.surrogate.derivative(membrane - ctx.spec.vthr)
        obs.count("kernel.calls", backend=ctx.executor.name, kernel="cuba_lif_backward")
        with obs.span(
            "kernel.cuba_lif_backward", category="kernel", backend=ctx.executor.name
        ):
            g_current = ctx.executor.lif_backward(
                g_spikes, surrogate, membrane, spikes, w_rec, ctx.spec
            )
        return _sequence_weight_grads(ctx, x, w_ff, w_rec, spikes, g_current) + (
            None,
            None,
            None,
        )


class _LeakyReadoutSequence(Function):
    """Fused non-spiking leaky integrator: returns the full trajectory."""

    @staticmethod
    def forward(ctx, x, w_ff, beta):
        """Run the leaky-integrator sweep on the active backend."""
        executor = backends.active()
        obs.count("kernel.calls", backend=executor.name, kernel="readout_forward")
        with obs.span("kernel.readout_forward", category="kernel", backend=executor.name):
            trajectory = executor.readout_forward(x @ w_ff, beta)
        ctx.save_for_backward(x, w_ff)
        ctx.beta = beta
        ctx.executor = executor
        return trajectory

    @staticmethod
    def backward(ctx, g_trajectory):
        """Reverse-accumulate the decay chain, then the weight GEMMs."""
        x, w_ff = ctx.saved
        timesteps = g_trajectory.shape[0]
        obs.count("kernel.calls", backend=ctx.executor.name, kernel="readout_backward")
        with obs.span(
            "kernel.readout_backward", category="kernel", backend=ctx.executor.name
        ):
            g_membrane = ctx.executor.readout_backward(g_trajectory, ctx.beta)
        gx = g_membrane @ w_ff.T if ctx.needs_input_grad[0] else None
        gw_ff = None
        if ctx.needs_input_grad[1]:
            # The feedforward weight gradient accumulates forward-in-time
            # (feedforward-only graph) — same order as the per-step tape.
            for t in range(timesteps):
                contribution = x[t].T @ g_membrane[t]
                gw_ff = contribution if gw_ff is None else gw_ff + contribution
        return gx, gw_ff, None


def lif_sequence(
    x: Tensor | np.ndarray,
    w_ff: Tensor | np.ndarray,
    params: LIFParameters,
    w_rec: Tensor | np.ndarray | None = None,
    threshold=None,
) -> Tensor:
    """Run a whole LIF layer sequence as one fused tape node.

    Args:
        x: Input spikes/activations ``[T, B, n_in]``.
        w_ff: Feedforward weights ``[n_in, n_out]``.
        params: Neuron constants (decay, reset mode, surrogate family).
        w_rec: Optional recurrent weights ``[n_out, n_out]``.
        threshold: Static effective ``Vthr`` — scalar or per-neuron
            ``[n_out]`` array; defaults to ``params.threshold``.
            Dynamic thresholds (Alg. 1 controllers) are *not*
            representable here — callers must use the per-step path for
            those.

    Returns:
        The output spike raster ``[T, B, n_out]``, numerically identical
        to ``T`` applications of :func:`repro.snn.neurons.lif_step`.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    w_ff = w_ff if isinstance(w_ff, Tensor) else Tensor(w_ff)
    if w_rec is not None and not isinstance(w_rec, Tensor):
        w_rec = Tensor(w_rec)
    _check_sequence_args(x.data, w_ff.data, None if w_rec is None else w_rec.data)
    vthr = resolve_threshold(params, threshold, dtype=x.data.dtype)
    return _LIFSequence.apply(x, w_ff, w_rec, params, vthr)


def cuba_lif_sequence(
    x: Tensor | np.ndarray,
    w_ff: Tensor | np.ndarray,
    params: LIFParameters,
    alpha: float,
    w_rec: Tensor | np.ndarray | None = None,
    threshold=None,
) -> Tensor:
    """Fused current-based (CuBa) LIF sequence.

    Same contract as :func:`lif_sequence` with the synaptic low-pass
    state ``J[t] = alpha * J[t-1] + I[t]`` of
    :func:`repro.snn.neurons.cuba_lif_step` inserted before integration.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"synaptic alpha must lie in (0, 1), got {alpha}")
    x = x if isinstance(x, Tensor) else Tensor(x)
    w_ff = w_ff if isinstance(w_ff, Tensor) else Tensor(w_ff)
    if w_rec is not None and not isinstance(w_rec, Tensor):
        w_rec = Tensor(w_rec)
    _check_sequence_args(x.data, w_ff.data, None if w_rec is None else w_rec.data)
    vthr = resolve_threshold(params, threshold, dtype=x.data.dtype)
    return _CubaLIFSequence.apply(x, w_ff, w_rec, params, float(alpha), vthr)


def leaky_readout_sequence(
    x: Tensor | np.ndarray,
    w_ff: Tensor | np.ndarray,
    beta: float,
) -> Tensor:
    """Fused leaky-integrator readout: membrane trajectory ``[T, B, C]``.

    The caller applies the logit reduction (mean/max/last) on the
    returned trajectory; those reductions are cheap single tape nodes.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    w_ff = w_ff if isinstance(w_ff, Tensor) else Tensor(w_ff)
    _check_sequence_args(x.data, w_ff.data, None)
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"readout beta must lie in (0, 1), got {beta}")
    return _LeakyReadoutSequence.apply(x, w_ff, float(beta))
