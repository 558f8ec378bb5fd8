"""Tests for LIF dynamics (paper Eq. 1-2)."""

import functools

import numpy as np
import pytest

import oracle
from oracle import lif_step
from repro.autograd import Tensor
from repro.errors import ConfigError
from repro.snn import LIFParameters, RecurrentLIFLayer

#: The oracle steps take float32 state and currents, as the layers do.
f32 = functools.partial(np.asarray, dtype=np.float32)
zeros = functools.partial(np.zeros, dtype=np.float32)


def make_params(**kwargs):
    defaults = dict(beta=0.9, threshold=1.0)
    defaults.update(kwargs)
    return LIFParameters(**defaults)


class TestLIFStep:
    def test_membrane_integrates_current(self):
        params = make_params()
        v, s = lif_step(zeros((1, 1)), zeros((1, 1)), f32([[0.4]]), params)
        assert v.item() == pytest.approx(0.4)
        assert s.item() == 0.0

    def test_membrane_decays(self):
        params = make_params(beta=0.5)
        v0 = f32([[0.8]])
        v, s = lif_step(v0, zeros((1, 1)), zeros((1, 1)), params)
        assert v.item() == pytest.approx(0.4)

    def test_spike_at_threshold_crossing(self):
        params = make_params()
        v, s = lif_step(zeros((1, 1)), zeros((1, 1)), f32([[1.2]]), params)
        assert s.item() == 1.0

    def test_no_spike_exactly_at_threshold(self):
        # Eq. 2 fires on V >= Vthr in the paper; our spike op uses strict >
        # on (V - Vthr), matching the SpikingLR reference forward pass.
        params = make_params()
        v, s = lif_step(zeros((1, 1)), zeros((1, 1)), f32([[1.0]]), params)
        assert s.item() == 0.0

    def test_hard_reset_zeroes_membrane(self):
        params = make_params(beta=0.9)
        prev_spikes = f32([[1.0]])
        v, s = lif_step(f32([[2.0]]), prev_spikes, zeros((1, 1)), params)
        # previous spike wipes the carried membrane: V = 0.9 * 2.0 * (1-1) = 0
        assert v.item() == pytest.approx(0.0)

    def test_threshold_override(self):
        params = make_params(threshold=1.0)
        _, s_default = lif_step(zeros((1, 1)), zeros((1, 1)), f32([[0.7]]), params)
        _, s_lowered = lif_step(
            zeros((1, 1)), zeros((1, 1)), f32([[0.7]]), params, threshold=0.5
        )
        assert s_default.item() == 0.0
        assert s_lowered.item() == 1.0

    def test_lower_threshold_fires_more(self):
        rng = np.random.default_rng(3)
        params = make_params()
        current = f32(rng.random((8, 32)).astype(np.float32))
        _, s_high = lif_step(zeros((8, 32)), zeros((8, 32)), current, params, threshold=0.9)
        _, s_low = lif_step(zeros((8, 32)), zeros((8, 32)), current, params, threshold=0.3)
        assert s_low.sum() >= s_high.sum()


def test_input_gradient_matches_oracle():
    """The fused layer pass hands its input the oracle's gradient.

    That gradient is what trains a learning layer below another one
    (NCL at insertion layers 1 and 2).
    """
    rng = np.random.default_rng(8)
    layer = RecurrentLIFLayer(5, 4, make_params(), rng=rng)
    x = Tensor((rng.random((9, 2, 5)) < 0.5).astype(np.float32), requires_grad=True)
    g_up = rng.standard_normal((9, 2, 4)).astype(np.float32)
    layer.forward(x).backward(g_up)
    gx, _, _ = oracle.layer_forward(layer, x.data)[1](g_up)
    assert np.any(x.grad != 0)
    oracle.assert_grads_close([x.grad], [gx])


class TestLIFParameters:
    def test_beta_bounds(self):
        with pytest.raises(ConfigError):
            make_params(beta=0.0)
        with pytest.raises(ConfigError):
            make_params(beta=1.0)

    def test_threshold_positive(self):
        with pytest.raises(ConfigError):
            make_params(threshold=0.0)

