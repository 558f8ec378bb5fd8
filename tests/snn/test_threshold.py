"""Tests for threshold controllers (Alg. 1 lines 10-17 and 25-30)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.snn import PerNeuronAdaptiveThreshold, StaticThreshold


class TestStaticThreshold:
    def test_constant(self):
        ctrl = StaticThreshold(1.5)
        assert ctrl.step(0, 100.0, 0.0) == 1.5
        assert ctrl.step(7, 0.0, 0.0) == 1.5
        assert ctrl.value == 1.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            StaticThreshold(0.0)

    def test_repr(self):
        assert "1.5" in repr(StaticThreshold(1.5))


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

    def test_reset_restores_initial(self):
        ctrl = PerNeuronAdaptiveThreshold(num_neurons=3, timesteps=40, adjust_interval=1)
        ctrl.step(0, np.full(3, 10.0), np.zeros(3))
        assert np.all(ctrl.value != 1.0)
        ctrl.reset()
        np.testing.assert_array_equal(ctrl.value, np.ones(3, dtype=np.float32))

    def test_clamping(self):
        ctrl = PerNeuronAdaptiveThreshold(
            num_neurons=1, timesteps=10_000, adjust_interval=1, floor=0.05, ceil=2.0
        )
        value = ctrl.step(0, np.ones(1), np.zeros(1))  # formula gives 101
        assert value[0] == 2.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            PerNeuronAdaptiveThreshold(num_neurons=0, timesteps=10)
        with pytest.raises(ConfigError):
            PerNeuronAdaptiveThreshold(num_neurons=2, timesteps=0)
        with pytest.raises(ConfigError):
            PerNeuronAdaptiveThreshold(num_neurons=2, timesteps=10, adjust_interval=0)
        with pytest.raises(ConfigError):
            PerNeuronAdaptiveThreshold(num_neurons=2, timesteps=10, floor=2.0, ceil=1.0)

    def test_rejects_counts_of_the_wrong_width(self):
        ctrl = PerNeuronAdaptiveThreshold(num_neurons=2, timesteps=10)
        with pytest.raises(ConfigError, match="per-neuron counts"):
            ctrl.step(0, np.zeros(3), np.zeros(3))

    def test_repr_mentions_state(self):
        ctrl = PerNeuronAdaptiveThreshold(num_neurons=4, timesteps=40)
        assert "n=4" in repr(ctrl) and "T=40" in repr(ctrl)
