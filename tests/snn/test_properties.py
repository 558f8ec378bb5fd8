"""Property-based tests (hypothesis) on SNN invariants."""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import lif_step
from repro.config import NetworkConfig
from repro.snn import (
    LIFParameters,
    PerNeuronAdaptiveThreshold,
    RecurrentLIFLayer,
    SpikingNetwork,
)

#: The oracle steps take float32 state and currents, as the layers do.
f32 = functools.partial(np.asarray, dtype=np.float32)
zeros = functools.partial(np.zeros, dtype=np.float32)


class TestLIFInvariants:
    @given(
        beta=st.floats(min_value=0.05, max_value=0.99),
        threshold=st.floats(min_value=0.2, max_value=3.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_spikes_always_binary(self, beta, threshold, seed):
        rng = np.random.default_rng(seed)
        params = LIFParameters(beta=beta, threshold=threshold)
        membrane = f32(rng.normal(0, 1, (3, 5)).astype(np.float32))
        prev = f32((rng.random((3, 5)) < 0.5).astype(np.float32))
        current = f32(rng.normal(0, 2, (3, 5)).astype(np.float32))
        _, spikes = lif_step(membrane, prev, current, params)
        assert set(np.unique(spikes)).issubset({0.0, 1.0})

    @given(beta=st.floats(min_value=0.05, max_value=0.99))
    @settings(max_examples=20, deadline=None)
    def test_membrane_decays_geometrically_without_input(self, beta):
        steps = 50
        params = LIFParameters(beta=beta, threshold=10.0)  # never fires
        membrane = f32(np.ones((1, 4), dtype=np.float32))
        prev = zeros((1, 4))
        for _ in range(steps):
            membrane, prev = lif_step(membrane, prev, zeros((1, 4)), params)
        expected = beta**steps
        np.testing.assert_allclose(membrane, expected, rtol=1e-3, atol=1e-7)

    @given(
        seed=st.integers(min_value=0, max_value=1000),
        drive=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_membrane_bounded_under_bounded_input(self, seed, drive):
        # With decay beta and bounded positive drive, the hard-reset
        # membrane cannot exceed drive / (1 - beta).
        params = LIFParameters(beta=0.9, threshold=1e9)  # never fires
        bound = drive / (1.0 - 0.9) + 1e-3
        membrane = zeros((1, 3))
        prev = zeros((1, 3))
        rng = np.random.default_rng(seed)
        for _ in range(100):
            current = f32(rng.uniform(0, drive, (1, 3)).astype(np.float32))
            membrane, prev = lif_step(membrane, prev, current, params)
            assert np.all(membrane <= bound)

    @given(threshold=st.floats(min_value=0.3, max_value=2.0))
    @settings(max_examples=20, deadline=None)
    def test_lower_threshold_never_fires_less(self, threshold):
        rng = np.random.default_rng(0)
        params = LIFParameters(beta=0.9, threshold=1.0)
        current = f32(rng.uniform(0, 2, (4, 16)).astype(np.float32))
        _, s_hi = lif_step(zeros((4, 16)), zeros((4, 16)), current, params,
                           threshold=threshold)
        _, s_lo = lif_step(zeros((4, 16)), zeros((4, 16)), current, params,
                           threshold=threshold * 0.5)
        assert s_lo.sum() >= s_hi.sum()


class TestLayerInvariants:
    @given(
        timesteps=st.integers(min_value=1, max_value=20),
        batch=st.integers(min_value=1, max_value=4),
        density=st.floats(min_value=0.0, max_value=0.8),
    )
    @settings(max_examples=25, deadline=None)
    def test_output_shape_and_binarity(self, timesteps, batch, density):
        layer = RecurrentLIFLayer(
            6, 4, LIFParameters(beta=0.9, threshold=1.0),
            rng=np.random.default_rng(0),
        )
        rng = np.random.default_rng(timesteps * 100 + batch)
        x = (rng.random((timesteps, batch, 6)) < density).astype(np.float32)
        out = layer.forward(x)
        assert out.shape == (timesteps, batch, 4)
        assert set(np.unique(out.data)).issubset({0.0, 1.0})

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=15, deadline=None)
    def test_forward_deterministic(self, seed):
        layer = RecurrentLIFLayer(
            5, 3, LIFParameters(beta=0.9, threshold=1.0),
            rng=np.random.default_rng(seed),
        )
        rng = np.random.default_rng(seed + 1)
        x = (rng.random((8, 2, 5)) < 0.4).astype(np.float32)
        np.testing.assert_array_equal(layer.forward(x).data, layer.forward(x).data)


class TestNetworkInvariants:
    @given(insertion=st.integers(min_value=0, max_value=3))
    @settings(max_examples=8, deadline=None)
    def test_split_consistency(self, insertion):
        """frozen-front + learning-tail == full forward, at any split."""
        net = SpikingNetwork(
            NetworkConfig(layer_sizes=(12, 10, 8, 6, 4), beta=0.9), seed=0
        )
        rng = np.random.default_rng(insertion)
        x = (rng.random((10, 3, 12)) < 0.3).astype(np.float32)
        full = net.forward(x).logits.data
        acts, _ = net.activations_at(insertion, x)
        partial = net.forward(acts, start_layer=insertion).logits.data
        np.testing.assert_allclose(full, partial, rtol=1e-5, atol=1e-6)


class TestPerNeuronControllerInvariants:
    @given(
        timesteps=st.integers(min_value=4, max_value=60),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=25, deadline=None)
    def test_thresholds_stay_in_clamp_band(self, timesteps, seed):
        ctrl = PerNeuronAdaptiveThreshold(num_neurons=6, timesteps=timesteps, adjust_interval=1)
        rng = np.random.default_rng(seed)
        for t in range(timesteps):
            counts = rng.poisson(1.0, 6).astype(float)
            value = ctrl.step(t, counts, counts * t)
            assert np.all(value >= 0.05) and np.all(value <= 4.0)

    @given(t=st.integers(min_value=1, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_silent_neurons_follow_decay(self, t):
        ctrl = PerNeuronAdaptiveThreshold(num_neurons=3, timesteps=40,
                                          adjust_interval=1)
        value = ctrl.step(t, np.zeros(3), np.zeros(3))
        expected = 1.0 / (1.0 + np.exp(-0.001 * t))
        np.testing.assert_allclose(value, expected, rtol=1e-6)
