"""Per-timestep autograd-tape oracle for the fused SNN kernels.

The library runs every layer pass as one fused tape node
(:mod:`repro.snn.kernels`).  This module keeps the readable formulation
those kernels are pinned to: each timestep is a handful of primitive
tape ops (decay, reset, matmul, surrogate Heaviside), so autograd
derives BPTT by itself and a threshold controller is consulted between
steps in plain Python.  Fused and oracle agree bitwise on forward
spikes, with and without dynamic thresholds.  Their weight gradients are
the same sums in a different order — the fused kernels take one GEMM
over ``T·B``, the tape adds ``T`` per-step products — so they agree to
``GRAD_RTOL``.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, stack, zeros
from repro.autograd.surrogate import spike
from repro.errors import ConfigError
from repro.snn.neurons import LIFParameters
from repro.snn.threshold import DECAY_RATE, GAIN, ThresholdController


#: Fused-vs-oracle gradient tolerance, relative to ``max|oracle grad|``.
GRAD_RTOL = 1e-5


def assert_grads_close(fused, tape) -> None:
    """Each fused gradient is within ``GRAD_RTOL * max|tape grad|``."""
    assert len(fused) == len(tape)
    for got, want in zip(fused, tape):
        assert got.shape == want.shape and got.dtype == want.dtype
        error = np.max(np.abs(got - want), initial=0.0)
        assert error <= GRAD_RTOL * np.max(np.abs(want), initial=0.0), error


def lif_step(
    membrane: Tensor,
    prev_spikes: Tensor,
    current: Tensor,
    params: LIFParameters,
    threshold=None,
) -> tuple[Tensor, Tensor]:
    """Advance one hard-reset LIF timestep (paper Eq. 1-2); return ``(V[t], S[t])``.

    ``threshold`` is this step's effective ``Vthr`` — a controller's
    scalar or per-neuron ``[N]`` value; defaults to ``params.threshold``.
    """
    vthr = params.threshold if threshold is None else threshold
    new_membrane = membrane * (1.0 - prev_spikes) * params.beta + current
    return new_membrane, spike(new_membrane - vthr, params.surrogate)


def cuba_lif_step(
    membrane: Tensor,
    syn_current: Tensor,
    prev_spikes: Tensor,
    input_current: Tensor,
    params: LIFParameters,
    alpha: float,
    threshold=None,
) -> tuple[Tensor, Tensor, Tensor]:
    """Advance one current-based LIF timestep.

    ``J[t] = alpha * J[t-1] + I[t]`` filters the input before it reaches
    the membrane.  Returns ``(membrane, syn_current, spikes)``.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"synaptic alpha must lie in (0, 1), got {alpha}")
    new_syn = syn_current * alpha + input_current
    membrane, spikes = lif_step(membrane, prev_spikes, new_syn, params, threshold)
    return membrane, new_syn, spikes


def layer_forward(layer, inputs, controller=None) -> Tensor:
    """:meth:`RecurrentLIFLayer.forward`, one tape node per op per step."""
    x = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
    timesteps, batch = x.shape[0], x.shape[1]
    membrane = zeros((batch, layer.n_out))
    spikes = zeros((batch, layer.n_out))
    syn = zeros((batch, layer.n_out)) if layer.synapse_alpha is not None else None
    threshold = None if controller is None else controller.value
    outputs: list[Tensor] = []
    for t in range(timesteps):
        current = x[t] @ layer.w_ff + spikes @ layer.w_rec
        if syn is not None:
            membrane, syn, spikes = cuba_lif_step(
                membrane, syn, spikes, current, layer.params,
                layer.synapse_alpha, threshold,
            )
        else:
            membrane, spikes = lif_step(membrane, spikes, current, layer.params, threshold)
        outputs.append(spikes)
        if controller is not None:
            counts = spikes.data.sum(axis=0)  # per-neuron, batch-summed
            threshold = controller.step(t, counts, counts * t)
    return stack(outputs, axis=0)


def readout_forward(readout, inputs, class_mask=None) -> Tensor:
    """:meth:`LeakyReadout.forward`, one tape node per op per step."""
    x = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
    membrane = zeros((x.shape[1], readout.n_out))
    trajectory: list[Tensor] = []
    for t in range(x.shape[0]):
        membrane = membrane * readout.beta + x[t] @ readout.w_ff
        trajectory.append(membrane)
    logits = stack(trajectory, axis=0).mean(axis=0)
    return readout._mask(logits, readout._resolve_mask(class_mask))


def network_forward(
    network, inputs, start_layer=0, controller=None, class_mask=None
) -> Tensor:
    """Logits of :meth:`SpikingNetwork.forward` from the oracle layers.

    The per-layer controller factory applies to every executed hidden layer.
    """
    activations = inputs
    for layer in network.hidden_layers[start_layer:]:
        activations = layer_forward(
            layer, activations, None if controller is None else controller(layer)
        )
    return readout_forward(network.readout, activations, class_mask)


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
