"""Fused sequence kernels: the one execution path of the SNN time loop.

Each kernel runs a layer's whole ``[T, B, N]`` time loop as one pass.
The forward runs the recurrence over preallocated state arrays; while
training it also builds a pass on its output
:class:`~repro.autograd.Tensor` (see :mod:`repro.autograd.tensor`),
whose backward is hand-derived BPTT through the
decay/reset/recurrent/surrogate path; inference builds none.
``Tensor.backward`` runs each layer's backward exactly once.  The
readable per-timestep formulation lives on only as the test oracle
(``tests/snn/oracle.py``), plain numpy one step at a time: forward
spikes match it bitwise, weight gradients to a stated tolerance (they
are one GEMM over ``T·B`` here, ``T`` per-step products summed in the
oracle).

A sweep's threshold is the layer's ``params.threshold`` or, for Alg. 1's
dynamic threshold, a :class:`~repro.snn.threshold.ThresholdController`:
the executor calls it between timesteps and records the threshold used
at each step as a ``[T, N]`` array.  The backward reads that record only
in the surrogate, ``V[t] - vthr[t]``, and does not differentiate the
threshold.

This module computes the GEMMs (the stacked feedforward projection and
one weight-gradient GEMM per weight — the bitwise anchor, always numpy)
and hands the time-recurrent sweeps to the one executor
(:func:`repro.snn.backends.active`): the C kernels where they built,
passed their self-check and take the arrays, else the numpy reference
sweeps.  The reference runs the same elementwise operations in the same
order as the per-step oracle; the C kernels replicate that association
order bitwise in compiled code.

Hand-derived BPTT (hard reset, Eq. 2; every hidden layer is recurrent)::

    forward:   I[t] = x[t] @ Wff + S[t-1] @ Wrec
               V[t] = beta * V[t-1] * (1 - S[t-1]) + I[t]
               S[t] = H(V[t] - vthr)

    reverse:   gS[t] = dL/dS[t] + Wrec^T-path + reset-path   (from t+1)
               gV[t] = gS[t] * fast_sigmoid'(V[t] - vthr) + beta * (1 - S[t]) * gV[t+1]
               gI[t] = gV[t]
               reset-path(t-1)     = -beta * V[t-1] * gV[t]
               Wrec^T-path(t-1)    = gI[t] @ Wrec^T
               gX[t]  = gI[t] @ Wff^T
               gWff   = sum_t x[t]^T @ gI[t]      (one GEMM over T*B rows)
               gWrec  = sum_t S[t-1]^T @ gI[t]    (one GEMM over (T-1)*B rows)

The bitwise-discipline rules the reference sweeps obey (and the C
kernels replicate) live in :mod:`repro.snn.backends.numpy_ref` and are
documented in ``docs/reproducibility.md``.

Every sweep runs in its input's dtype, float32 throughout the library
(the C kernels exist for float32 only); each ``kernel.calls`` counter
and ``kernel.*`` span carries that ``dtype`` and the path that ran the
sweep (``backend``: ``c`` or ``numpy``) as tags, so a promoted layer
shows in any trace.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.autograd import Tensor, fast_sigmoid_surrogate
from repro.errors import ConfigError, ShapeError
from repro.snn import backends
from repro.snn.backends import SweepSpec
from repro.snn.neurons import LIFParameters
from repro.snn.threshold import ThresholdController

__all__ = [
    "lif_sequence",
    "leaky_readout_sequence",
]


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


def _flat(a: np.ndarray) -> np.ndarray:
    """``[T, B, n]`` as ``[T*B, n]``: one GEMM then reduces over time and batch."""
    return a.reshape(-1, a.shape[-1])


def _kernel_span(kernel: str, backend: str, dtype: np.dtype):
    """Count one ``kernel`` sweep in ``kernel.calls`` and return its span.

    Both carry the path that runs the sweep and the sweep's dtype.  One
    recorder lookup keeps disabled tracing near free, and
    ``dtype.type.__name__`` is read because numpy's ``dtype.name`` costs
    microseconds a call.
    """
    recorder = obs.current()
    dtype = dtype.type.__name__
    recorder.count("kernel.calls", backend=backend, kernel=kernel, dtype=dtype)
    return recorder.span(f"kernel.{kernel}", category="kernel", backend=backend, dtype=dtype)


class _LIFPass:
    """One LIF layer pass: the saved sweep and its hand-derived BPTT."""

    def __init__(self, x, w_ff, w_rec, membrane, spikes, vthr, spec):
        self.input, self.w_ff, self.w_rec = x, w_ff, w_rec
        self.saved = x.data, w_ff.data, w_rec.data, membrane, spikes
        self.vthr = vthr
        self.spec = spec

    def backward(self, g_spikes: np.ndarray) -> np.ndarray | None:
        """The reverse sweep, then one GEMM per gradient over ``T·B``.

        BLAS, not a per-step sum, picks the weight gradients' summation
        order (see the oracle tolerance in ``docs/reproducibility.md``).
        Sets the trainable weights' ``.grad``; returns the input's
        gradient, or None when the input needs none.
        """
        x, w_ff, w_rec, membrane, spikes = self.saved
        vthr = self.vthr
        if np.ndim(vthr) == 2:  # per-step [T, N] record -> [T, 1, N]
            vthr = vthr[:, None, :]
        surrogate = fast_sigmoid_surrogate(membrane - vthr)
        executor = backends.active()
        arrays = g_spikes, surrogate, membrane, spikes
        with _kernel_span("lif_backward", executor.path(*arrays, w_rec=w_rec), spikes.dtype):
            g_current = executor.lif_backward(*arrays, w_rec, self.spec)
        if self.w_ff.requires_grad:
            self.w_ff.grad = _flat(x).T @ _flat(g_current)
        if self.w_rec.requires_grad:
            # S[-1] = 0: gI[0] never reaches Wrec, and at T == 1 the empty
            # product is its zero gradient (not an absent one).
            self.w_rec.grad = _flat(spikes[:-1]).T @ _flat(g_current[1:])
        return g_current @ w_ff.T if self.input.requires_grad else None


class _ReadoutPass:
    """One leaky-readout pass: the saved integration and its backward."""

    def __init__(self, x, w_ff, beta, shape, scale):
        self.input, self.w_ff = x, w_ff
        self.saved = x.data, w_ff.data
        self.beta, self.shape, self.scale = beta, shape, scale

    def backward(self, g_logits: np.ndarray) -> np.ndarray | None:
        """Spread ``g * scale`` over time, reverse the decay chain, then the GEMMs.

        The upstream gradient is cast to the sweep's dtype first, so a
        wider gradient never promotes the readout's weight gradient.  A
        class mask's additive penalty passes its gradient through
        unchanged, so a masked readout runs this same backward.
        """
        x, w_ff = self.saved
        g_logits = np.asarray(g_logits, dtype=self.scale.dtype)
        g_trajectory = np.broadcast_to(g_logits * self.scale, self.shape).copy()
        executor = backends.active()
        with _kernel_span("readout_backward", executor.path(g_trajectory), self.scale.dtype):
            g_membrane = executor.readout_backward(g_trajectory, self.beta)
        if self.w_ff.requires_grad:
            self.w_ff.grad = _flat(x).T @ _flat(g_membrane)
        return g_membrane @ w_ff.T if self.input.requires_grad else None


def lif_sequence(
    x: Tensor | np.ndarray,
    w_ff: Tensor | np.ndarray,
    params: LIFParameters,
    w_rec: Tensor | np.ndarray,
    controller: ThresholdController | None = None,
) -> Tensor:
    """Run a whole recurrent LIF layer sequence as one fused pass.

    Args:
        x: Input spikes/activations ``[T, B, n_in]``.
        w_ff: Feedforward weights ``[n_in, n_out]``.
        params: Neuron constants (decay, threshold).
        w_rec: Recurrent weights ``[n_out, n_out]``.
        controller: Optional :class:`~repro.snn.threshold.ThresholdController`
            that sets ``Vthr`` per timestep from the spike activity
            (Alg. 1); None means ``params.threshold``.

    Returns:
        The output spike raster ``[T, B, n_out]``, numerically identical
        to ``T`` steps of the per-timestep LIF update (Eq. 1-2).  It
        carries the layer's pass when the input or a weight requires
        grad (and not under :func:`~repro.autograd.no_grad`).
    """
    x, w_ff, w_rec = (a if isinstance(a, Tensor) else Tensor(a) for a in (x, w_ff, w_rec))
    _check_sequence_args(x.data, w_ff.data, w_rec.data)
    executor = backends.active()
    vthr = None if controller is not None else params.threshold
    spec = SweepSpec(beta=params.beta, vthr=vthr)
    ff = x.data @ w_ff.data
    with _kernel_span("lif_forward", executor.path(ff, w_rec=w_rec.data), ff.dtype):
        membrane, spikes, used = executor.lif_forward(ff, w_rec.data, spec, controller)
    if controller is not None and np.any(used <= 0.0):
        raise ConfigError(f"{controller!r} produced a non-positive threshold")
    return Tensor(
        spikes,
        x.requires_grad or w_ff.requires_grad or w_rec.requires_grad,
        lambda: _LIFPass(x, w_ff, w_rec, membrane, spikes, used, spec),
    )


def leaky_readout_sequence(
    x: Tensor | np.ndarray,
    w_ff: Tensor | np.ndarray,
    beta: float,
) -> Tensor:
    """Fused leaky-integrator readout: logits ``[B, C]`` in one pass.

    Args:
        x: Input spikes/activations ``[T, B, n_in]``.
        w_ff: Feedforward weights ``[n_in, C]``.
        beta: Membrane decay, in ``(0, 1)``.

    Returns:
        Each class membrane's mean over the ``T`` steps of
        ``m[t] = beta * m[t-1] + x[t] @ w_ff``: the trajectory's sum over
        time, times ``1/T`` in its dtype.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    w_ff = w_ff if isinstance(w_ff, Tensor) else Tensor(w_ff)
    _check_sequence_args(x.data, w_ff.data, None)
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"readout beta must lie in (0, 1), got {beta}")
    beta = float(beta)
    executor = backends.active()
    projected = x.data @ w_ff.data
    with _kernel_span("readout_forward", executor.path(projected), projected.dtype):
        trajectory = executor.readout_forward(projected, beta)
    # The time mean is a sum then a 0-d scale in the trajectory's dtype.
    scale = np.asarray(1.0 / trajectory.shape[0], trajectory.dtype)
    logits = trajectory.sum(axis=0) * scale
    return Tensor(
        logits,
        x.requires_grad or w_ff.requires_grad,
        lambda: _ReadoutPass(x, w_ff, beta, trajectory.shape, scale),
    )
