"""Tests for RecurrentLIFLayer and LeakyReadout."""

import numpy as np
import pytest

from repro import obs
from repro.errors import DataError, ReproError, ShapeError
from repro.snn import LeakyReadout, LIFParameters, RecurrentLIFLayer, ThresholdController


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def make_layer(n_in=10, n_out=6, rng=None, **neuron_kwargs):
    params = LIFParameters(**{**dict(beta=0.9, threshold=1.0), **neuron_kwargs})
    return RecurrentLIFLayer(n_in, n_out, params, rng=rng or np.random.default_rng(0))


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

    def test_frozen_layer_saves_no_pass(self, rng):
        layer = make_layer()
        layer.set_trainable(False)
        x = (rng.random((5, 2, 10)) < 0.3).astype(np.float32)
        out = layer.forward(x)
        assert not out.requires_grad
        # A readout downstream of the frozen output trains only its own
        # weight: no gradient and no backward kernel reach the layer.
        readout = LeakyReadout(6, 3, rng=rng)
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            logits = readout.forward(out)
            logits.backward(np.ones(logits.shape, dtype=np.float32))
        assert readout.w_ff.grad is not None
        assert layer.w_ff.grad is None and layer.w_rec.grad is None
        kernels_run = {m.tag_dict().get("kernel") for m in recorder.metrics()}
        assert "readout_backward" in kernels_run
        assert "lif_backward" not in kernels_run

    def test_trainable_layer_saves_a_pass(self, rng):
        layer = make_layer()
        x = (rng.random((5, 2, 10)) < 0.3).astype(np.float32)
        out = layer.forward(x)
        assert out.requires_grad

    def test_gradients_reach_both_weight_matrices(self, rng):
        layer = make_layer()
        x = (rng.random((15, 2, 10)) < 0.5).astype(np.float32)
        out = layer.forward(x)
        out.backward(np.ones(out.shape, dtype=np.float32))
        assert layer.w_ff.grad is not None and np.abs(layer.w_ff.grad).sum() > 0
        assert layer.w_rec.grad is not None

    def test_state_dict_roundtrip(self, rng):
        a = make_layer(rng=np.random.default_rng(1))
        b = make_layer(rng=np.random.default_rng(2))
        assert not np.array_equal(a.w_ff.data, b.w_ff.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.w_ff.data, b.w_ff.data)
        np.testing.assert_array_equal(a.w_rec.data, b.w_rec.data)

    def test_float64_state_loads_as_float32(self):
        a = make_layer(rng=np.random.default_rng(1))
        state = {name: value.astype(np.float64) for name, value in a.state_dict().items()}
        b = make_layer(rng=np.random.default_rng(2))
        b.load_state_dict(state)
        for name, value in state.items():
            restored = b.state_dict()[name]
            assert restored.dtype == np.float32
            np.testing.assert_array_equal(restored, value.astype(np.float32))

    def test_float32_state_loads_bitwise_as_a_copy(self):
        a = make_layer(rng=np.random.default_rng(1))
        state = a.state_dict()
        b = make_layer(rng=np.random.default_rng(2))
        b.load_state_dict(state)
        for name, value in state.items():
            restored = getattr(b, name).data
            assert restored.dtype == np.float32
            assert restored.tobytes() == value.tobytes()
            value += 1.0  # the layer does not alias the caller's arrays
            assert not np.array_equal(restored, value)

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

    def test_controller_receives_every_timestep(self, rng):
        class CountingController(ThresholdController):
            value = 1.0

            def __init__(self):
                self.calls = []

            def step(self, t, spike_count, spike_time_sum):
                self.calls.append(t)
                return self.value

        ctrl = CountingController()
        layer = make_layer()
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

    def test_mean_over_time_readout(self):
        readout = LeakyReadout(3, 2, beta=1e-9, rng=np.random.default_rng(0))
        x = np.zeros((4, 1, 3), dtype=np.float32)
        x[1, 0, 0] = 1.0
        logits = readout.forward(x)
        np.testing.assert_allclose(
            logits.data[0], readout.w_ff.data[0] / 4.0, rtol=1e-5
        )

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
        logits = readout.forward(x)
        logits.backward(np.ones(logits.shape, dtype=np.float32))
        assert readout.w_ff.grad is not None
        assert np.abs(readout.w_ff.grad).sum() > 0

    def test_frozen_readout_saves_no_pass(self, rng):
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

    def test_float64_state_loads_as_float32(self):
        a = LeakyReadout(6, 4, rng=np.random.default_rng(1))
        b = LeakyReadout(6, 4, rng=np.random.default_rng(2))
        b.load_state_dict({"w_ff": a.w_ff.data.astype(np.float64)})
        assert b.w_ff.data.dtype == np.float32
        np.testing.assert_array_equal(a.w_ff.data, b.w_ff.data)

    def test_float32_state_loads_bitwise_as_a_copy(self):
        a = LeakyReadout(6, 4, rng=np.random.default_rng(1))
        b = LeakyReadout(6, 4, rng=np.random.default_rng(2))
        state = {"w_ff": a.w_ff.data.copy()}
        b.load_state_dict(state)
        assert b.w_ff.data.dtype == np.float32
        assert b.w_ff.data.tobytes() == a.w_ff.data.tobytes()
        state["w_ff"] += 1.0
        np.testing.assert_array_equal(a.w_ff.data, b.w_ff.data)


@pytest.mark.parametrize(
    "layer",
    [
        pytest.param(lambda: make_layer(n_in=10), id="lif"),
        pytest.param(lambda: LeakyReadout(10, 4, rng=np.random.default_rng(0)), id="readout"),
    ],
)
def test_fanin_is_checked_by_the_kernels_alone(layer):
    """A layer hands its input straight to its kernel, whose check names the
    weights the input does not fit."""
    with pytest.raises(ShapeError, match=r"feedforward weights \(10, \d+\) do not match"):
        layer().forward(np.zeros((5, 2, 7), dtype=np.float32))
