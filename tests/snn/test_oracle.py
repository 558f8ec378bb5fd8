"""Finite-difference certification of the oracle's own BPTT.

The Heaviside spike has no useful derivative, so these checks swap in a
smooth spike function whose exact derivative replaces the surrogate:
the oracle's reverse loop must then be the true gradient of its
forward, through every path (decay, hard reset, recurrence, per-step
thresholds).  The fused passes are pinned to the
oracle elsewhere (``test_kernels.py``, ``test_backends.py``).
"""

import numpy as np
import pytest

import oracle
from repro.snn import LeakyReadout, LIFParameters, RecurrentLIFLayer, ThresholdController

SHARPNESS = 3.0


def smooth_spike(x):
    return 1.0 / (1.0 + np.exp(-SHARPNESS * x))


def smooth_spike_derivative(x):
    s = smooth_spike(x)
    return SHARPNESS * s * (1.0 - s)


SMOOTH = (smooth_spike, smooth_spike_derivative)


class ScheduleThreshold(ThresholdController):
    """A per-step, per-neuron threshold that ignores the spikes.

    Its thresholds do not depend on the weights, so finite differences
    see the same schedule the backward reads.
    """

    def __init__(self, schedule):
        self.schedule, self._value = schedule, schedule[0]

    def step(self, t, spike_counts, spike_time_sums):
        self._value = self.schedule[min(t + 1, len(self.schedule) - 1)]
        return self._value

    @property
    def value(self):
        return self._value


def float64_layer(params, seed=0):
    layer = RecurrentLIFLayer(4, 3, params, rng=np.random.default_rng(seed), ff_gain=1.5)
    rng = np.random.default_rng(seed + 1)
    layer.w_ff.data = layer.w_ff.data.astype(np.float64)
    layer.w_rec.data = rng.standard_normal((3, 3)) * 0.6
    return layer


def central_difference(loss, array, eps=1e-6):
    """``d loss / d array`` by central differences, perturbing in place."""
    grad = np.zeros_like(array)
    for index in np.ndindex(array.shape):
        original = array[index]
        array[index] = original + eps
        plus = loss()
        array[index] = original - eps
        minus = loss()
        array[index] = original
        grad[index] = (plus - minus) / (2.0 * eps)
    return grad


TIMESTEPS = 7


#: Two operating points: a leaky, low-threshold neuron and
#: ``NetworkConfig``'s default (beta 0.95, Vthr 1.0).
PARAMS = [
    pytest.param(LIFParameters(beta=0.8, threshold=0.6), id="lif"),
    pytest.param(LIFParameters(beta=0.95, threshold=1.0), id="lif-config"),
]


# T = 1 and T = 2 are the reverse loop's edges: no later step, then one.
@pytest.mark.parametrize("timesteps", [1, 2, TIMESTEPS], ids=lambda t: f"T{t}")
@pytest.mark.parametrize("target", ["x", "w_ff", "w_rec"])
@pytest.mark.parametrize("schedule", [False, True], ids=["static", "per-step"])
@pytest.mark.parametrize("params", PARAMS)
def test_lif_backward_is_the_gradient(params, schedule, target, timesteps):
    layer = float64_layer(params)
    rng = np.random.default_rng(7)
    x = rng.random((timesteps, 2, 4)) * 1.5
    g_up = rng.standard_normal((timesteps, 2, 3))
    thresholds = 0.3 + rng.random((timesteps, 3))

    def controller():
        return ScheduleThreshold(thresholds) if schedule else None

    def loss():
        spikes, _ = oracle.layer_forward(layer, x, controller(), spike=SMOOTH)
        return float(np.sum(g_up * spikes))

    _, backward = oracle.layer_forward(layer, x, controller(), spike=SMOOTH)
    analytic = dict(zip(("x", "w_ff", "w_rec"), backward(g_up)))[target]
    array = {"x": x, "w_ff": layer.w_ff.data, "w_rec": layer.w_rec.data}[target]
    numeric = central_difference(loss, array)
    if target == "w_rec" and timesteps == 1:  # S[-1] = 0 never reaches Wrec
        assert not analytic.any() and np.abs(numeric).max() < 1e-8
    else:
        assert np.abs(numeric).max() > 1e-3  # the check probes a live gradient
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("target", ["x", "w_ff"])
@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
def test_readout_backward_is_the_gradient(masked, target):
    readout = LeakyReadout(4, 3, beta=0.85, rng=np.random.default_rng(3))
    readout.w_ff.data = readout.w_ff.data.astype(np.float64)
    rng = np.random.default_rng(4)
    x = rng.random((TIMESTEPS, 2, 4))
    g_up = rng.standard_normal((2, 3))
    mask = np.array([True, False, True]) if masked else None
    if masked:
        # A -1e9 logit has no digits left for a 1e-6 step; the masked
        # class's gradient takes the same path as the others'.
        g_up[:, 1] = 0.0

    def loss():
        logits, _ = oracle.readout_forward(readout, x, mask)
        return float(np.sum(g_up * logits))

    _, backward = oracle.readout_forward(readout, x, mask)
    analytic = dict(zip(("x", "w_ff"), backward(g_up)))[target]
    array = {"x": x, "w_ff": readout.w_ff.data}[target]
    np.testing.assert_allclose(analytic, central_difference(loss, array), rtol=1e-6, atol=1e-8)


def test_smooth_spike_derivative_is_exact():
    x = np.linspace(-2.0, 2.0, 9)
    numeric = (smooth_spike(x + 1e-6) - smooth_spike(x - 1e-6)) / 2e-6
    np.testing.assert_allclose(smooth_spike_derivative(x), numeric, rtol=1e-8)
