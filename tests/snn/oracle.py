"""Plain-numpy per-timestep oracle for the fused SNN layer passes.

The library runs every layer pass as one fused sweep
(:mod:`repro.snn.kernels`) whose backward is hand-derived BPTT.  This
module keeps the readable formulation those passes are pinned to, with
no use of :mod:`repro.snn.kernels` or :mod:`repro.snn.backends`: the
forward advances one timestep at a time (a controller is consulted
between steps in plain Python), and each layer's backward is its own
per-step reverse loop, written from the BPTT equations with the same
float ops in the same order:

    gS[t] = (dL/dS[t] + reset-path) + recurrent-path     (paths from t+1)
    gV[t] = gS[t] * fast_sigmoid'(V[t] - vthr[t]) + decay-path
    gI[t] = gV[t]

Fused and oracle agree bitwise on forward spikes, with and without
dynamic thresholds.  Their weight gradients are the same sums in a
different order — the fused passes take one GEMM over ``T·B``, the
oracle adds ``T`` per-step products as its reverse loop visits the
steps — so they agree to ``GRAD_RTOL``.  The oracle's own BPTT is
certified by finite differences (``test_oracle.py``): a smooth spike
function, passed as ``spike=(function, derivative)``, replaces the
Heaviside and its exact derivative replaces the fast-sigmoid surrogate.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import fast_sigmoid_surrogate
from repro.snn.layers import MASKED_LOGIT
from repro.snn.neurons import LIFParameters
from repro.snn.threshold import DECAY_RATE, GAIN, ThresholdController


#: Fused-vs-oracle gradient tolerance, relative to ``max|oracle grad|``.
GRAD_RTOL = 1e-5


def assert_grads_close(fused, oracle) -> None:
    """Each fused gradient is within ``GRAD_RTOL * max|oracle grad|``."""
    assert len(fused) == len(oracle)
    for got, want in zip(fused, oracle):
        assert got.shape == want.shape and got.dtype == want.dtype
        error = np.max(np.abs(got - want), initial=0.0)
        assert error <= GRAD_RTOL * np.max(np.abs(want), initial=0.0), error


def heaviside(x: np.ndarray) -> np.ndarray:
    """The spike function: 1 where ``V - Vthr`` is strictly positive."""
    return (x > 0.0).astype(x.dtype)


def lif_step(membrane, prev_spikes, current, params: LIFParameters, threshold=None,
             spike=heaviside):
    """Advance one hard-reset LIF timestep (paper Eq. 1-2); return ``(V[t], S[t])``.

    ``threshold`` is this step's effective ``Vthr`` — a controller's
    scalar or per-neuron ``[N]`` value, cast to the membrane's dtype;
    defaults to ``params.threshold``.
    """
    vthr = np.asarray(params.threshold if threshold is None else threshold, membrane.dtype)
    membrane = membrane * (1.0 - prev_spikes) * params.beta + current
    return membrane, spike(membrane - vthr)


def layer_forward(layer, x, controller=None, spike=None):
    """:meth:`RecurrentLIFLayer.forward`, one timestep at a time.

    ``spike`` is an optional ``(function, derivative)`` pair replacing
    the Heaviside and the fast-sigmoid surrogate.  Returns ``(spikes,
    backward)``: the ``[T, B, N]`` raster and a function mapping its
    gradient to ``(gx, gw_ff, gw_rec)``.
    """
    x = np.asarray(x)
    w_ff, w_rec = layer.w_ff.data, layer.w_rec.data
    params = layer.params
    fire, derivative = spike or (heaviside, fast_sigmoid_surrogate)
    dtype = np.result_type(x, w_ff)
    membrane = spikes = np.zeros((x.shape[1], layer.n_out), dtype)
    threshold = params.threshold if controller is None else controller.value
    membranes, rasters, thresholds = [], [], []
    for t in range(x.shape[0]):
        current = x[t] @ w_ff + spikes @ w_rec
        threshold = np.asarray(threshold, dtype)
        membrane, spikes = lif_step(membrane, spikes, current, params, threshold, fire)
        membranes.append(membrane)
        rasters.append(spikes)
        thresholds.append(threshold)
        if controller is not None:
            counts = spikes.sum(axis=0)  # per-neuron, batch-summed
            threshold = controller.step(t, counts, counts * t)

    def backward(g_spikes):
        gx = np.empty_like(x, dtype=dtype)
        gw_ff = np.zeros_like(w_ff)
        gw_rec = np.zeros_like(w_rec)
        gv_next = None  # gV[t+1] = gI[t+1] once a later step exists
        for t in range(x.shape[0] - 1, -1, -1):
            gs = g_spikes[t]
            if gv_next is not None:
                gs = gs + -((gv_next * params.beta) * membranes[t])
                gs = gs + gv_next @ w_rec.T
            gv = gs * derivative(membranes[t] - thresholds[t])
            if gv_next is not None:
                gv = gv + (gv_next * params.beta) * (1.0 - rasters[t])
            gw_ff = gw_ff + x[t].T @ gv
            if t > 0:
                gw_rec = gw_rec + rasters[t - 1].T @ gv
            gx[t] = gv @ w_ff.T
            gv_next = gv
        return gx, gw_ff, gw_rec

    return np.stack(rasters), backward


def readout_forward(readout, x, class_mask=None):
    """:meth:`LeakyReadout.forward`, one timestep at a time.

    Returns ``(logits, backward)``; ``backward`` maps the logits'
    gradient to ``(gx, gw_ff)``.  The class mask's penalty is a
    constant, so its gradient passes through.
    """
    x = np.asarray(x)
    w_ff, beta = readout.w_ff.data, readout.beta
    dtype = np.result_type(x, w_ff)
    membrane = np.zeros((x.shape[1], readout.n_out), dtype)
    trajectory = []
    for t in range(x.shape[0]):
        membrane = membrane * beta + x[t] @ w_ff
        trajectory.append(membrane)
    scale = np.asarray(1.0 / x.shape[0], dtype)
    logits = np.stack(trajectory).sum(axis=0) * scale
    if class_mask is not None and not np.all(class_mask):
        logits = logits + np.where(class_mask, 0.0, MASKED_LOGIT).astype(dtype)

    def backward(g_logits):
        g = g_logits * scale  # each step's share of the time mean
        gx = np.empty_like(x, dtype=dtype)
        gw_ff = np.zeros_like(w_ff)
        carry = None  # the decay path from t+1
        for t in range(x.shape[0] - 1, -1, -1):
            gm = g if carry is None else g + carry
            gw_ff = gw_ff + x[t].T @ gm
            gx[t] = gm @ w_ff.T
            carry = gm * beta
        return gx, gw_ff

    return logits, backward


def network_forward(network, inputs, start_layer=0, controller=None, class_mask=None):
    """:meth:`SpikingNetwork.forward` from the oracle layers.

    The per-layer controller factory applies to every executed hidden
    layer.  Returns ``(logits, backward)``; ``backward`` maps the
    logits' gradient to the gradient of every executed weight, in
    :meth:`SpikingNetwork.parameters` order.
    """
    activations, backwards = inputs, []
    for layer in network.hidden_layers[start_layer:]:
        activations, backward = layer_forward(
            layer, activations, None if controller is None else controller(layer)
        )
        backwards.append(backward)
    logits, readout_backward = readout_forward(network.readout, activations, class_mask)

    def backward(g_logits):
        g, gw_out = readout_backward(g_logits)
        grads = [gw_out]
        for layer_backward in reversed(backwards):
            g, gw_ff, gw_rec = layer_backward(g)
            grads[:0] = [gw_ff, gw_rec]
        return grads

    return logits, backward


def cross_entropy_grad(logits, labels):
    """Gradient of the mean softmax cross-entropy w.r.t. ``logits``.

    ``(softmax - onehot) / N``, in the logits' dtype.
    """
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    return grad * (np.ones((), logits.dtype) / n)


class ScalarAdaptiveThreshold(ThresholdController):
    """Alg. 1's threshold rules applied layer-wide: one scalar ``Vthr``.

    The library deploys only the per-neuron controller; this one keeps
    the executors' scalar-controller path (a controller whose ``step``
    returns a float) under test.  On a boundary step
    (``t % adjust_interval == 0``) after any spike, ``Vthr = 1 + GAIN *
    (timesteps - mean spike time)``; every other step takes the
    sigmoidal decay ``1 / (1 + exp(-DECAY_RATE * t))``.
    """

    def __init__(self, timesteps, adjust_interval=5):
        self.timesteps, self.adjust_interval = timesteps, adjust_interval
        self._value, self.spike_count, self._spike_time_sum = 1.0, 0.0, 0.0

    def step(self, t, spike_counts, spike_time_sums) -> float:
        self.spike_count += float(np.sum(spike_counts))
        self._spike_time_sum += float(np.sum(spike_time_sums))
        if t % self.adjust_interval == 0 and self.spike_count > 0:
            mean_time = self._spike_time_sum / self.spike_count
            self._value = 1.0 + GAIN * (self.timesteps - mean_time)
        else:
            self._value = float(1.0 / (1.0 + np.exp(-DECAY_RATE * t)))
        return self._value

    @property
    def value(self) -> float:
        return self._value
