"""Tests for the current-based (CuBa) LIF variant."""

import functools

import numpy as np
import pytest

from oracle import cuba_lif_step
from test_neurons import assert_input_gradient_matches_oracle
from repro.config import NetworkConfig
from repro.errors import ConfigError
from repro.snn import LIFParameters, RecurrentLIFLayer, SpikingNetwork

#: The oracle steps take float32 state and currents, as the layers do.
f32 = functools.partial(np.asarray, dtype=np.float32)
zeros = functools.partial(np.zeros, dtype=np.float32)


def params(**kwargs):
    return LIFParameters(**{**dict(beta=0.9, threshold=1.0), **kwargs})


class TestCubaStep:
    def test_synaptic_filtering(self):
        # A single input pulse decays through the synaptic state.
        p = params(threshold=100.0)  # never fire
        membrane, syn = zeros((1, 1)), zeros((1, 1))
        spikes = zeros((1, 1))
        membrane, syn, spikes = cuba_lif_step(
            membrane, syn, spikes, f32([[1.0]]), p, alpha=0.5
        )
        assert syn.item() == pytest.approx(1.0)
        membrane, syn, spikes = cuba_lif_step(
            membrane, syn, spikes, zeros((1, 1)), p, alpha=0.5
        )
        assert syn.item() == pytest.approx(0.5)  # decayed, no new input

    def test_membrane_integrates_filtered_current(self):
        p = params(threshold=100.0)
        membrane, syn, spikes = cuba_lif_step(
            zeros((1, 1)), zeros((1, 1)), zeros((1, 1)), f32([[1.0]]), p, alpha=0.5
        )
        assert membrane.item() == pytest.approx(1.0)  # V = 0*beta + I

    def test_spikes_fire_at_threshold(self):
        p = params(threshold=0.5)
        _, _, spikes = cuba_lif_step(
            zeros((1, 1)), zeros((1, 1)), zeros((1, 1)), f32([[1.0]]), p, alpha=0.5
        )
        assert spikes.item() == 1.0

    def test_alpha_validation(self):
        p = params()
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigError):
                cuba_lif_step(
                    zeros((1, 1)), zeros((1, 1)), zeros((1, 1)),
                    zeros((1, 1)), p, alpha=bad,
                )


def test_input_gradient_matches_oracle():
    assert_input_gradient_matches_oracle(alpha=0.7)


class TestCubaLayer:
    def test_layer_accepts_alpha(self):
        layer = RecurrentLIFLayer(
            6, 4, params(), rng=np.random.default_rng(0), synapse_alpha=0.6
        )
        rng = np.random.default_rng(1)
        x = (rng.random((10, 2, 6)) < 0.4).astype(np.float32)
        out = layer.forward(x)
        assert out.shape == (10, 2, 4)
        assert set(np.unique(out.data)).issubset({0.0, 1.0})

    def test_cuba_differs_from_plain(self):
        kwargs = dict(rng=np.random.default_rng(0))
        plain = RecurrentLIFLayer(6, 4, params(), **kwargs)
        cuba = RecurrentLIFLayer(
            6, 4, params(), rng=np.random.default_rng(0), synapse_alpha=0.6
        )
        cuba.w_ff.data = plain.w_ff.data.copy()
        cuba.w_rec.data = plain.w_rec.data.copy()
        rng = np.random.default_rng(1)
        x = (rng.random((15, 2, 6)) < 0.4).astype(np.float32)
        assert not np.array_equal(plain.forward(x).data, cuba.forward(x).data)

    def test_layer_alpha_validation(self):
        with pytest.raises(ConfigError):
            RecurrentLIFLayer(6, 4, params(), synapse_alpha=1.5)

    def test_network_level_config(self):
        cfg = NetworkConfig(layer_sizes=(8, 6, 4, 3), synapse_alpha=0.7)
        net = SpikingNetwork(cfg, seed=0)
        assert all(layer.synapse_alpha == 0.7 for layer in net.hidden_layers)
        rng = np.random.default_rng(0)
        x = (rng.random((8, 2, 8)) < 0.3).astype(np.float32)
        assert net.forward(x).logits.shape == (2, 3)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            NetworkConfig(layer_sizes=(8, 6, 4, 3), synapse_alpha=0.0)
