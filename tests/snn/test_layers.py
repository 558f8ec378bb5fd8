"""Tests for RecurrentLIFLayer and LeakyReadout."""

import numpy as np
import pytest

from repro import obs
from repro.autograd import Tensor
from repro.errors import DataError, ReproError, ShapeError
from repro.snn import LeakyReadout, LIFParameters, RecurrentLIFLayer, StaticThreshold


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def make_layer(n_in=10, n_out=6, recurrent=True, rng=None, **neuron_kwargs):
    params = LIFParameters(**{**dict(beta=0.9, threshold=1.0), **neuron_kwargs})
    return RecurrentLIFLayer(n_in, n_out, params, recurrent=recurrent,
                             rng=rng or np.random.default_rng(0))


class TestRecurrentLIFLayer:
    def test_output_shape_and_binary(self, rng):
        layer = make_layer()
        x = (rng.random((12, 3, 10)) < 0.3).astype(np.float32)
        out = layer.forward(x)
        assert out.shape == (12, 3, 6)
        assert set(np.unique(out.data)).issubset({0.0, 1.0})

    def test_rejects_wrong_rank(self, rng):
        layer = make_layer()
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((3, 10), dtype=np.float32))

    def test_rejects_wrong_fanin(self, rng):
        layer = make_layer(n_in=10)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((5, 2, 7), dtype=np.float32))

    def test_no_recurrent_weights_when_disabled(self):
        layer = make_layer(recurrent=False)
        assert layer.w_rec is None
        assert len(layer.parameters()) == 1

    def test_recurrent_changes_dynamics(self, rng):
        x = (rng.random((20, 2, 10)) < 0.4).astype(np.float32)
        ff = make_layer(recurrent=False, rng=np.random.default_rng(1))
        rec = make_layer(recurrent=True, rng=np.random.default_rng(1))
        rec.w_ff.data = ff.w_ff.data.copy()
        out_ff = ff.forward(x)
        out_rec = rec.forward(x)
        # Same feedforward weights, recurrent term must alter some spikes
        # (recurrent init is nonzero by construction).
        assert not np.array_equal(out_ff.data, out_rec.data)

    def test_frozen_layer_builds_no_tape(self, rng):
        layer = make_layer()
        layer.set_trainable(False)
        x = (rng.random((5, 2, 10)) < 0.3).astype(np.float32)
        out = layer.forward(x)
        assert not out.requires_grad
        # A loss downstream of the frozen output trains only its own
        # weight: no gradient and no backward kernel reach the layer.
        w = Tensor(np.ones(6, dtype=np.float32), requires_grad=True)
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            (out * w).sum().backward()
        np.testing.assert_array_equal(w.grad, out.data.sum(axis=(0, 1)))
        assert layer.w_ff.grad is None and layer.w_rec.grad is None
        kernels_run = {m.tag_dict().get("kernel") for m in recorder.metrics()}
        assert "lif_backward" not in kernels_run

    def test_trainable_layer_builds_tape(self, rng):
        layer = make_layer()
        x = (rng.random((5, 2, 10)) < 0.3).astype(np.float32)
        out = layer.forward(x)
        assert out.requires_grad

    def test_gradients_reach_both_weight_matrices(self, rng):
        layer = make_layer()
        x = (rng.random((15, 2, 10)) < 0.5).astype(np.float32)
        out = layer.forward(x)
        out.sum().backward()
        assert layer.w_ff.grad is not None and np.abs(layer.w_ff.grad).sum() > 0
        assert layer.w_rec.grad is not None

    def test_state_dict_roundtrip(self, rng):
        a = make_layer(rng=np.random.default_rng(1))
        b = make_layer(rng=np.random.default_rng(2))
        assert not np.array_equal(a.w_ff.data, b.w_ff.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.w_ff.data, b.w_ff.data)
        np.testing.assert_array_equal(a.w_rec.data, b.w_rec.data)

    def test_state_dict_shape_mismatch_raises(self):
        a = make_layer(n_in=10)
        b = make_layer(n_in=12)
        with pytest.raises(ShapeError):
            a.load_state_dict(b.state_dict())

    def test_wrong_w_rec_shape_raises_and_leaves_layer(self):
        layer = make_layer(n_out=6)
        before = layer.state_dict()
        state = make_layer(rng=np.random.default_rng(5)).state_dict()
        state["w_rec"] = np.zeros((3, 3), dtype=np.float32)
        with pytest.raises(ShapeError, match="w_rec"):
            layer.load_state_dict(state)
        np.testing.assert_array_equal(layer.w_ff.data, before["w_ff"])
        np.testing.assert_array_equal(layer.w_rec.data, before["w_rec"])

    @pytest.mark.parametrize("missing", ["w_ff", "w_rec"])
    def test_missing_weight_raises_repro_error(self, missing):
        layer = make_layer()
        state = layer.state_dict()
        del state[missing]
        with pytest.raises(DataError, match=missing):
            layer.load_state_dict(state)
        assert issubclass(DataError, ReproError)

    def test_state_dict_is_copy(self):
        layer = make_layer()
        state = layer.state_dict()
        state["w_ff"][0, 0] = 99.0
        assert layer.w_ff.data[0, 0] != 99.0

    @pytest.mark.parametrize("recurrent", [True, False])
    def test_controller_receives_every_timestep(self, rng, recurrent):
        class CountingController(StaticThreshold):
            def __init__(self):
                super().__init__(1.0)
                self.calls = []

            def step(self, t, spike_count, spike_time_sum):
                self.calls.append(t)
                return super().step(t, spike_count, spike_time_sum)

        ctrl = CountingController()
        layer = make_layer(recurrent=recurrent)
        x = (rng.random((7, 2, 10)) < 0.3).astype(np.float32)
        layer.forward(x, ctrl)
        assert ctrl.calls == list(range(7))

    def test_silent_input_gives_silent_output(self):
        layer = make_layer()
        x = np.zeros((10, 2, 10), dtype=np.float32)
        out = layer.forward(x)
        assert out.data.sum() == 0.0


class TestLeakyReadout:
    def test_logit_shape(self, rng):
        readout = LeakyReadout(6, 4, beta=0.9, rng=rng)
        x = (rng.random((12, 3, 6)) < 0.3).astype(np.float32)
        logits = readout.forward(x)
        assert logits.shape == (3, 4)

    def test_max_over_time_readout(self, rng):
        # With beta~0 the readout reduces to per-step projection; the
        # logit must equal the max over steps.
        readout = LeakyReadout(
            3, 2, beta=1e-9, rng=np.random.default_rng(0), readout_mode="max"
        )
        x = np.zeros((4, 1, 3), dtype=np.float32)
        x[1, 0, 0] = 1.0
        x[3, 0, 1] = 1.0
        logits = readout.forward(x)
        w = readout.w_ff.data
        expected = np.maximum.reduce([np.zeros(2), w[0], np.zeros(2), w[1]])
        np.testing.assert_allclose(logits.data[0], expected, rtol=1e-5)

    def test_mean_over_time_readout(self):
        readout = LeakyReadout(
            3, 2, beta=1e-9, rng=np.random.default_rng(0), readout_mode="mean"
        )
        x = np.zeros((4, 1, 3), dtype=np.float32)
        x[1, 0, 0] = 1.0
        logits = readout.forward(x)
        np.testing.assert_allclose(
            logits.data[0], readout.w_ff.data[0] / 4.0, rtol=1e-5
        )

    def test_last_readout(self):
        readout = LeakyReadout(
            3, 2, beta=0.5, rng=np.random.default_rng(0), readout_mode="last"
        )
        x = np.zeros((2, 1, 3), dtype=np.float32)
        x[0, 0, 0] = 1.0
        logits = readout.forward(x)
        np.testing.assert_allclose(
            logits.data[0], 0.5 * readout.w_ff.data[0], rtol=1e-5
        )

    def test_invalid_readout_mode(self):
        from repro.errors import DataError, ReproError, ShapeError

        with pytest.raises(ShapeError):
            LeakyReadout(3, 2, readout_mode="median")

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5])
    def test_rejects_beta_outside_unit_interval(self, beta):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="beta"):
            LeakyReadout(3, 2, beta=beta)

    def test_rejects_wrong_rank(self, rng):
        readout = LeakyReadout(6, 4, rng=rng)
        with pytest.raises(ShapeError):
            readout.forward(np.zeros((3, 6), dtype=np.float32))

    def test_rejects_wrong_fanin(self, rng):
        readout = LeakyReadout(6, 4, rng=rng)
        with pytest.raises(ShapeError):
            readout.forward(np.zeros((5, 2, 7), dtype=np.float32))

    def test_gradient_reaches_weights(self, rng):
        readout = LeakyReadout(6, 4, rng=rng)
        x = (rng.random((10, 2, 6)) < 0.5).astype(np.float32)
        readout.forward(x).sum().backward()
        assert readout.w_ff.grad is not None
        assert np.abs(readout.w_ff.grad).sum() > 0

    def test_frozen_readout_builds_no_tape(self, rng):
        readout = LeakyReadout(6, 4, rng=rng)
        readout.set_trainable(False)
        x = (rng.random((5, 2, 6)) < 0.3).astype(np.float32)
        out = readout.forward(x)
        assert not out.requires_grad

    def test_state_dict_roundtrip(self, rng):
        a = LeakyReadout(6, 4, rng=np.random.default_rng(1))
        b = LeakyReadout(6, 4, rng=np.random.default_rng(2))
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.w_ff.data, b.w_ff.data)
