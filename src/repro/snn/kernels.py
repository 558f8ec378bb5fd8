"""Fused sequence kernels: the one execution path of the SNN time loop.

Each kernel collapses a layer's whole ``[T, B, N]`` time loop into
**one** :class:`repro.autograd.Function` — the autograd tape's only
kind of node, so ``Tensor.backward`` calls it exactly once: the
forward runs the recurrence over preallocated state arrays, and the
backward is hand-derived BPTT through the decay/reset/recurrent/surrogate
path.  The readable per-timestep formulation — one tape node per decay,
reset, matmul and Heaviside — lives on only as the test oracle
(``tests/snn/oracle.py``): forward spikes match it bitwise, weight
gradients to a stated tolerance (they are one GEMM over ``T·B`` here,
``T`` per-step products summed on the tape).

A sweep's threshold is the layer's ``params.threshold`` or, for Alg. 1's
dynamic threshold, a :class:`~repro.snn.threshold.ThresholdController`:
the executor calls it between timesteps and records the threshold used
at each step as a ``[T, N]`` array.  The backward reads that record only
in the surrogate, ``V[t] - vthr[t]``, and does not differentiate the
threshold.

*Which executor* runs the recurrence is pluggable: this module computes
the GEMMs (the stacked feedforward projection and one weight-gradient
GEMM per weight — the bitwise anchor, always numpy) and hands the
time-recurrent sweeps to the backend selected via ``REPRO_BACKEND``
(see :mod:`repro.snn.backends`).  The numpy reference executor runs the
same elementwise operations in the same order as the per-step tape; the
C executor replicates that association order bitwise in compiled code.

Hand-derived BPTT (hard reset, Eq. 2; every hidden layer is recurrent)::

    forward:   I[t] = x[t] @ Wff + S[t-1] @ Wrec
               V[t] = beta * V[t-1] * (1 - S[t-1]) + I[t]
               S[t] = H(V[t] - vthr)

    reverse:   gS[t] = dL/dS[t] + Wrec^T-path + reset-path   (from t+1)
               gV[t] = gS[t] * surrogate'(V[t] - vthr) + beta * (1 - S[t]) * gV[t+1]
               gI[t] = gV[t]
               reset-path(t-1)     = -beta * V[t-1] * gV[t]
               Wrec^T-path(t-1)    = gI[t] @ Wrec^T
               gX[t]  = gI[t] @ Wff^T
               gWff   = sum_t x[t]^T @ gI[t]      (one GEMM over T*B rows)
               gWrec  = sum_t S[t-1]^T @ gI[t]    (one GEMM over (T-1)*B rows)

The bitwise-discipline rules the reference sweeps obey (and bitwise
backends must replicate) live in :mod:`repro.snn.backends.numpy_ref`
and are documented in ``docs/reproducibility.md``.

Every sweep runs in its input's dtype, float32 throughout the library
(the C kernels exist for float32 only); each ``kernel.calls`` counter
and ``kernel.*`` span carries that ``dtype`` as a tag, so a promoted
layer shows in any trace.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.autograd import Function, Tensor
from repro.errors import ConfigError, ShapeError
from repro.snn import backends
from repro.snn.backends import SweepSpec
from repro.snn.neurons import LIFParameters
from repro.snn.threshold import ThresholdController

__all__ = [
    "lif_sequence",
    "cuba_lif_sequence",
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

    Both carry the backend and the sweep's dtype.  One recorder lookup
    keeps disabled tracing near free, and ``dtype.type.__name__`` is read
    because numpy's ``dtype.name`` costs microseconds a call.
    """
    recorder = obs.current()
    dtype = dtype.type.__name__
    recorder.count("kernel.calls", backend=backend, kernel=kernel, dtype=dtype)
    return recorder.span(f"kernel.{kernel}", category="kernel", backend=backend, dtype=dtype)


def _sequence_weight_grads(node, x, w_ff, w_rec, spikes, g_current):
    """Input/weight gradients from ``gI``, one GEMM each over ``T·B``.

    BLAS, not the per-step tape, picks the summation order (see the
    oracle tolerance in ``docs/reproducibility.md``).  Gradients whose
    ``node.needs_input_grad`` flag is False are skipped.
    """
    needs = node.needs_input_grad
    gx = g_current @ w_ff.T if needs[0] else None
    gw_ff = _flat(x).T @ _flat(g_current) if needs[1] else None
    gw_rec = None
    if needs[2]:
        # S[-1] = 0: gI[0] never reaches Wrec, and at T == 1 the empty
        # product is its zero gradient (not an absent one).
        gw_rec = _flat(spikes[:-1]).T @ _flat(g_current[1:])
    return gx, gw_ff, gw_rec


class _LIFSequence(Function):
    """Single tape node for a full (CuBa-)LIF layer pass (module docstring)."""

    def forward(self, x, w_ff, w_rec, params, alpha, controller):
        """Run the T-step membrane/spike sweep on the active backend."""
        executor = backends.active()
        vthr = None if controller is not None else params.threshold
        spec = SweepSpec(beta=params.beta, vthr=vthr, alpha=alpha)
        kernel = "lif" if alpha is None else "cuba_lif"
        ff = x @ w_ff
        with _kernel_span(f"{kernel}_forward", executor.name, ff.dtype):
            membrane, spikes, used = executor.lif_forward(ff, w_rec, spec, controller)
        if controller is not None and np.any(used <= 0.0):
            raise ConfigError(f"{controller!r} produced a non-positive threshold")
        self.saved = x, w_ff, w_rec, membrane, spikes
        self.params = params
        self.spec = spec
        self.vthr = used
        self.kernel = kernel
        # The executor is pinned at forward time so backward runs on the
        # same backend even if REPRO_BACKEND flips mid-graph.
        self.executor = executor
        return spikes

    def backward(self, g_spikes):
        """Hand-derived BPTT: the tape's elementwise order, one GEMM per weight."""
        x, w_ff, w_rec, membrane, spikes = self.saved
        vthr = self.vthr
        if np.ndim(vthr) == 2:  # per-step [T, N] record -> [T, 1, N]
            vthr = vthr[:, None, :]
        surrogate = self.params.surrogate.derivative(membrane - vthr)
        with _kernel_span(f"{self.kernel}_backward", self.executor.name, spikes.dtype):
            g_current = self.executor.lif_backward(
                g_spikes, surrogate, membrane, spikes, w_rec, self.spec
            )
        return _sequence_weight_grads(self, x, w_ff, w_rec, spikes, g_current) + (
            None,
        ) * 3


class _LeakyReadoutSequence(Function):
    """Fused non-spiking leaky integrator: returns the time-mean logits."""

    def forward(self, x, w_ff, beta):
        """Integrate on the active backend, then average over time.

        The mean is ``Tensor.mean(axis=0)``'s own ops, a sum then a 0-d
        scale in the trajectory's dtype, so the logits match it bitwise.
        """
        executor = backends.active()
        projected = x @ w_ff
        with _kernel_span("readout_forward", executor.name, projected.dtype):
            trajectory = executor.readout_forward(projected, beta)
        self.saved = x, w_ff
        self.beta = beta
        self.shape = trajectory.shape
        self.scale = np.asarray(1.0 / trajectory.shape[0], trajectory.dtype)
        self.executor = executor
        return trajectory.sum(axis=0) * self.scale

    def backward(self, g_logits):
        """Spread ``g * scale`` over time, reverse the decay chain, then the GEMMs.

        The upstream gradient is cast to the sweep's dtype first, so a
        wider gradient never promotes the readout's weight gradient.
        """
        x, w_ff = self.saved
        g_logits = np.asarray(g_logits, dtype=self.scale.dtype)
        g_trajectory = np.broadcast_to(g_logits * self.scale, self.shape).copy()
        with _kernel_span("readout_backward", self.executor.name, self.scale.dtype):
            g_membrane = self.executor.readout_backward(g_trajectory, self.beta)
        gx = g_membrane @ w_ff.T if self.needs_input_grad[0] else None
        gw_ff = _flat(x).T @ _flat(g_membrane) if self.needs_input_grad[1] else None
        return gx, gw_ff, None


def _lif_apply(x, w_ff, w_rec, params, alpha, controller) -> Tensor:
    x, w_ff, w_rec = (a if isinstance(a, Tensor) else Tensor(a) for a in (x, w_ff, w_rec))
    _check_sequence_args(x.data, w_ff.data, w_rec.data)
    return _LIFSequence.apply(x, w_ff, w_rec, params, alpha, controller)


def lif_sequence(
    x: Tensor | np.ndarray,
    w_ff: Tensor | np.ndarray,
    params: LIFParameters,
    w_rec: Tensor | np.ndarray,
    controller: ThresholdController | None = None,
) -> Tensor:
    """Run a whole recurrent LIF layer sequence as one fused tape node.

    Args:
        x: Input spikes/activations ``[T, B, n_in]``.
        w_ff: Feedforward weights ``[n_in, n_out]``.
        params: Neuron constants (decay, threshold, surrogate family).
        w_rec: Recurrent weights ``[n_out, n_out]``.
        controller: Optional :class:`~repro.snn.threshold.ThresholdController`
            that sets ``Vthr`` per timestep from the spike activity
            (Alg. 1); None means ``params.threshold``.

    Returns:
        The output spike raster ``[T, B, n_out]``, numerically identical
        to ``T`` steps of the per-timestep LIF update (Eq. 1-2).
    """
    return _lif_apply(x, w_ff, w_rec, params, None, controller)


def cuba_lif_sequence(
    x: Tensor | np.ndarray,
    w_ff: Tensor | np.ndarray,
    params: LIFParameters,
    alpha: float,
    w_rec: Tensor | np.ndarray,
    controller: ThresholdController | None = None,
) -> Tensor:
    """Fused current-based (CuBa) LIF sequence.

    Same contract as :func:`lif_sequence` with the synaptic low-pass
    state ``J[t] = alpha * J[t-1] + I[t]`` inserted before integration.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"synaptic alpha must lie in (0, 1), got {alpha}")
    return _lif_apply(x, w_ff, w_rec, params, float(alpha), controller)


def leaky_readout_sequence(
    x: Tensor | np.ndarray,
    w_ff: Tensor | np.ndarray,
    beta: float,
) -> Tensor:
    """Fused leaky-integrator readout: logits ``[B, C]`` in one tape node.

    Args:
        x: Input spikes/activations ``[T, B, n_in]``.
        w_ff: Feedforward weights ``[n_in, C]``.
        beta: Membrane decay, in ``(0, 1)``.

    Returns:
        Each class membrane's mean over the ``T`` steps of
        ``m[t] = beta * m[t-1] + x[t] @ w_ff``, bitwise equal to the
        trajectory's ``Tensor.mean(axis=0)``.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    w_ff = w_ff if isinstance(w_ff, Tensor) else Tensor(w_ff)
    _check_sequence_args(x.data, w_ff.data, None)
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"readout beta must lie in (0, 1), got {beta}")
    return _LeakyReadoutSequence.apply(x, w_ff, float(beta))
