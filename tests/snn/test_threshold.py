"""Tests for threshold controllers (Alg. 1 lines 10-17 and 25-30)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.snn import PerNeuronAdaptiveThreshold


def decay(t):
    """Alg. 1 line 16: Vthr = 1 / (1 + exp(-0.001 t))."""
    return 1.0 / (1.0 + np.exp(-0.001 * t))


class TestPerNeuronAdaptiveThreshold:
    def test_spike_timing_formula_on_boundary(self):
        # Alg. 1 line 13: Vthr = 1 + 0.01 * (Tstep - avg_spike_time); a
        # neuron with 10 spikes at t=0 gets 1 + 0.01*40 = 1.4, a silent
        # one decays.
        ctrl = PerNeuronAdaptiveThreshold(num_neurons=2, timesteps=40, adjust_interval=5)
        value = ctrl.step(0, np.array([10.0, 0.0]), np.zeros(2))
        np.testing.assert_allclose(value, [1.4, decay(0)], rtol=1e-6)

    def test_late_spikes_lower_threshold(self):
        ctrl = PerNeuronAdaptiveThreshold(num_neurons=2, timesteps=40, adjust_interval=1)
        ctrl.step(0, np.array([5.0, 0.0]), np.zeros(2))
        value = ctrl.step(35, np.array([0.0, 5.0]), np.array([0.0, 5.0 * 35]))
        assert value[1] < value[0]

    def test_off_boundary_active_neurons_hold(self):
        # Between boundaries a neuron that has spiked keeps its last
        # timing-rule value; a silent one keeps decaying.
        ctrl = PerNeuronAdaptiveThreshold(num_neurons=2, timesteps=40, adjust_interval=5)
        ctrl.step(0, np.array([1.0, 0.0]), np.zeros(2))
        value = ctrl.step(2, np.array([50.0, 0.0]), np.array([100.0, 0.0]))
        np.testing.assert_allclose(value, [1.4, decay(2)], rtol=1e-6)

    def test_clamping(self):
        ctrl = PerNeuronAdaptiveThreshold(num_neurons=1, timesteps=10_000, adjust_interval=1)
        value = ctrl.step(0, np.ones(1), np.zeros(1))  # formula gives 101
        assert value[0] == 4.0  # the CEIL clamp

    def test_validation(self):
        with pytest.raises(ConfigError):
            PerNeuronAdaptiveThreshold(num_neurons=0, timesteps=10)
        with pytest.raises(ConfigError):
            PerNeuronAdaptiveThreshold(num_neurons=2, timesteps=0)
        with pytest.raises(ConfigError):
            PerNeuronAdaptiveThreshold(num_neurons=2, timesteps=10, adjust_interval=0)

    def test_rejects_counts_of_the_wrong_width(self):
        ctrl = PerNeuronAdaptiveThreshold(num_neurons=2, timesteps=10)
        with pytest.raises(ConfigError, match="per-neuron counts"):
            ctrl.step(0, np.zeros(3), np.zeros(3))

    def test_repr_mentions_state(self):
        ctrl = PerNeuronAdaptiveThreshold(num_neurons=4, timesteps=40)
        assert "n=4" in repr(ctrl) and "T=40" in repr(ctrl)


def alg1_reference(timesteps, adjust_interval, counts, time_sums):
    """Alg. 1's per-neuron rule transcribed neuron by neuron, in float64,
    rounded to the controller's float32 after every step; one row per step."""
    n = counts.shape[1]
    value = np.ones(n, dtype=np.float32)
    total = np.zeros(n)
    time_total = np.zeros(n)
    rows = []
    for t in range(counts.shape[0]):
        total += counts[t]
        time_total += time_sums[t]
        for i in range(n):
            if total[i] == 0:  # silent so far: line 16's sigmoidal decay
                value[i] = 1.0 / (1.0 + np.exp(-0.001 * t))
            elif t % adjust_interval == 0:  # line 13 on a boundary
                value[i] = 1.0 + 0.01 * (timesteps - time_total[i] / total[i])
        value = np.clip(value, np.float32(0.05), np.float32(4.0))
        rows.append(value.copy())
    return np.stack(rows)


class TestAlgorithm1Transcription:
    """The controller equals a plain transcription of Alg. 1 bitwise over
    whole sweeps: neurons that start silent, fire, and fall silent again,
    fed the counts and time sums an executor passes (``counts * t``)."""

    @pytest.mark.parametrize("adjust_interval", [1, 2, 3, 5])
    @pytest.mark.parametrize("timesteps", [4, 25, 100, 1000])
    def test_trajectory(self, adjust_interval, timesteps):
        rng = np.random.default_rng(timesteps + adjust_interval)
        steps = min(timesteps, 40)
        counts = rng.poisson(0.6, size=(steps, 9)).astype(np.float64)
        counts[:, 0] = 0.0  # one neuron never fires
        counts[: steps // 2, 1] = 0.0  # one wakes up halfway
        time_sums = counts * np.arange(steps)[:, None]
        ctrl = PerNeuronAdaptiveThreshold(
            num_neurons=9, timesteps=timesteps, adjust_interval=adjust_interval
        )
        got = np.stack([ctrl.step(t, counts[t], time_sums[t]).copy() for t in range(steps)])
        assert got.dtype == np.float32
        np.testing.assert_array_equal(
            got, alg1_reference(timesteps, adjust_interval, counts, time_sums)
        )


def _batch_coupling_factory(layer):
    return PerNeuronAdaptiveThreshold(num_neurons=layer.n_out, timesteps=20, adjust_interval=5)


#: Two LIF operating points: ``NetworkConfig``'s default and a leakier,
#: lower-threshold neuron.
_OPERATING_POINTS = {"lif": {}, "lif-leaky": dict(beta=0.9, threshold=0.65)}


@pytest.mark.parametrize("neuron", sorted(_OPERATING_POINTS))
@pytest.mark.parametrize("layer", [1, 2, 3])
@pytest.mark.parametrize("position", [0, 5, 11])
class TestBatchCoupling:
    """``step`` sees spike counts summed over the batch (the current
    reading of Alg. 1, see the class docstring): under the controller a
    sample's spikes depend on its batch-mates; without one they do not,
    at any depth of the frozen front and any place in the batch."""

    @staticmethod
    def _frozen_front(controller, neuron, layer, position):
        from repro.config import NetworkConfig
        from repro.snn import SpikingNetwork

        config = NetworkConfig(layer_sizes=(40, 32, 24, 16, 4), **_OPERATING_POINTS[neuron])
        net = SpikingNetwork(config, seed=0)
        x = (np.random.default_rng(0).random((20, 12, 40)) < 0.2).astype(np.float32)
        batch, _ = net.activations_at(layer, x, controller)
        alone, _ = net.activations_at(layer, x[:, position : position + 1], controller)
        assert batch.any()
        return batch[:, position : position + 1], alone

    def test_without_controller_a_sample_ignores_its_batch(self, neuron, layer, position):
        in_batch, alone = self._frozen_front(None, neuron, layer, position)
        np.testing.assert_array_equal(in_batch, alone)

    def test_controller_couples_a_sample_to_its_batch(self, neuron, layer, position):
        in_batch, alone = self._frozen_front(
            _batch_coupling_factory, neuron, layer, position
        )
        assert not np.array_equal(in_batch, alone)
