"""Tests for SpikingNetwork: forward, split semantics, tracing, cloning."""

import numpy as np
import pytest

import oracle
from repro import obs
from repro.config import NetworkConfig
from repro.errors import DataError, ShapeError, SplitError
from repro.snn import kernels
from repro.snn import (
    LeakyReadout,
    PerNeuronAdaptiveThreshold,
    RecurrentLIFLayer,
    SpikingNetwork,
)
from repro.training.losses import readout_cross_entropy


def trainable(layer):
    """Whether any of ``layer``'s weights require grad."""
    return any(p.requires_grad for p in layer.parameters())


@pytest.fixture
def config():
    return NetworkConfig(layer_sizes=(20, 16, 12, 8, 5), beta=0.9)


@pytest.fixture
def net(config):
    return SpikingNetwork(config, seed=0)


@pytest.fixture
def x():
    rng = np.random.default_rng(0)
    return (rng.random((12, 4, 20)) < 0.25).astype(np.float32)


class TestStructure:
    def test_num_weight_layers(self, net):
        assert net.num_weight_layers == 4  # L=4 as in the paper

    def test_layer_input_sizes(self, net):
        assert [net.layer_input_size(i) for i in range(4)] == [20, 16, 12, 8]

    def test_layer_index_validation(self, net):
        with pytest.raises(SplitError):
            net.layer_input_size(4)
        with pytest.raises(SplitError):
            net.layer_input_size(-1)

    def test_parameter_count(self, net):
        # 3 hidden layers x (w_ff + w_rec) + readout w_ff
        assert len(net.parameters()) == 7

    def test_seeded_determinism(self, config):
        a = SpikingNetwork(config, seed=5)
        b = SpikingNetwork(config, seed=5)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self, config):
        a = SpikingNetwork(config, seed=5)
        b = SpikingNetwork(config, seed=6)
        assert not np.array_equal(a.parameters()[0].data, b.parameters()[0].data)


class TestForward:
    def test_logits_shape(self, net, x):
        result = net.forward(x)
        assert result.logits.shape == (4, 5)

    def test_trace_covers_all_layers(self, net, x):
        result = net.forward(x)
        assert [e.name for e in result.trace.entries] == [
            "hidden0",
            "hidden1",
            "hidden2",
            "readout",
        ]

    def test_trace_records_dims(self, net, x):
        entries = net.forward(x).trace.entries
        assert (entries[0].n_in, entries[0].n_out) == (20, 16)
        assert entries[0].timesteps == 12 and entries[0].batch == 4
        assert entries[-1].output_spike_count == 0.0  # readout never spikes

    def test_trace_reports_pass_extent(self, net, x):
        trace = net.forward(x).trace
        assert all((e.timesteps, e.batch) == (12, 4) for e in trace.entries)

    @pytest.mark.parametrize("start_layer", [0, 2, 3])
    def test_trace_counts_are_each_rasters_sum(self, net, x, start_layer):
        # Each raster is summed once and shared by the two entries it
        # feeds; the values are those of summing every raster per entry.
        rasters = [
            net.activations_at(k, x)[0]
            for k in range(start_layer, net.num_weight_layers)
        ]
        entries = net.forward(rasters[0], start_layer=start_layer).trace.entries
        assert len(entries) == len(rasters)
        for i, entry in enumerate(entries):
            assert entry.input_spike_count == float(rasters[i].sum())
            want_out = float(rasters[i + 1].sum()) if i + 1 < len(rasters) else 0.0
            assert entry.output_spike_count == want_out

    @pytest.mark.parametrize("insertion", [1, 2, 3])
    def test_activations_at_trace_is_forwards_front(self, net, x, insertion):
        acts, trace = net.activations_at(insertion, x)
        assert trace.entries == net.forward(x).trace.entries[:insertion]
        assert acts.shape == (12, 4, net.layer_input_size(insertion))

    def test_shape_validation(self, net):
        with pytest.raises(ShapeError):
            net.forward(np.zeros((12, 4, 21), dtype=np.float32))

    def test_start_layer_shape_validation(self, net):
        with pytest.raises(ShapeError):
            net.forward(np.zeros((12, 4, 20), dtype=np.float32), start_layer=1)

    @pytest.mark.parametrize("start_layer", [0, 2])
    def test_each_layer_input_is_checked_once(self, net, x, monkeypatch, start_layer):
        """Every layer pass reaches the kernels' shape check exactly once."""
        checked = []
        original = kernels._check_sequence_args

        def counted(inputs, w_ff, w_rec):
            checked.append(inputs.shape[2])
            original(inputs, w_ff, w_rec)

        monkeypatch.setattr(kernels, "_check_sequence_args", counted)
        inputs = net.activations_at(start_layer, x)[0]
        checked.clear()
        net.forward(inputs, start_layer=start_layer)
        sizes = net.config.layer_sizes
        assert checked == list(sizes[start_layer:-1])

    def test_backward_reaches_all_parameters(self, net, x):
        result = net.forward(x)
        readout_cross_entropy(result.logits, np.array([0, 1, 2, 3])).backward()
        for p in net.parameters():
            assert p.grad is not None

    def test_deterministic_forward(self, net, x):
        a = net.forward(x).logits.data
        b = net.forward(x).logits.data
        np.testing.assert_array_equal(a, b)


class TestBackwardWalk:
    """The loss's backward walks the executed layers' passes in reverse,
    handing each the input gradient of the one above, as the oracle's
    chain does."""

    LABELS = np.array([0, 1, 2, 3])

    @pytest.mark.parametrize("adaptive", [False, True], ids=["static", "alg1"])
    @pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
    @pytest.mark.parametrize("start_layer", [0, 1, 2, 3])
    def test_chain_gradients_match_oracle(self, net, x, start_layer, masked, adaptive):
        mask = np.array([True, True, True, True, False]) if masked else None
        inputs, _ = net.activations_at(start_layer, x)

        def factory(layer):
            return PerNeuronAdaptiveThreshold(
                num_neurons=layer.n_out, timesteps=12, adjust_interval=2
            )

        controller = factory if adaptive else None
        logits = net.forward(
            inputs, start_layer=start_layer, controller=controller,
            controller_from_layer=start_layer, class_mask=mask,
        ).logits
        readout_cross_entropy(logits, self.LABELS).backward()
        want_logits, backward = oracle.network_forward(
            net, inputs, start_layer, controller, mask
        )
        assert np.array_equal(logits.data, want_logits)
        want = backward(oracle.cross_entropy_grad(want_logits, self.LABELS))
        params = net.parameters()
        oracle.assert_grads_close([p.grad for p in params[2 * start_layer:]], want)
        assert all(p.grad is None for p in params[: 2 * start_layer])

    @pytest.mark.parametrize("frozen_below", [0, 1, 2, 3])
    def test_frozen_front_runs_no_backward(self, net, x, frozen_below):
        net.freeze_below(frozen_below)
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            result = net.forward(x)
            readout_cross_entropy(result.logits, self.LABELS).backward()
        backward_calls = {
            metric.tag_dict()["kernel"]: metric.total
            for metric in recorder.metrics()
            if metric.tag_dict().get("kernel", "").endswith("_backward")
        }
        expected = {"readout_backward": 1.0}
        if frozen_below < len(net.hidden_layers):
            expected["lif_backward"] = len(net.hidden_layers) - frozen_below
        assert backward_calls == expected
        for i, layer in enumerate(net.hidden_layers):
            assert all((p.grad is not None) == (i >= frozen_below) for p in layer.parameters())


class TestSplit:
    def test_freeze_below_marks_layers(self, net):
        net.freeze_below(2)
        assert not trainable(net.hidden_layers[0])
        assert not trainable(net.hidden_layers[1])
        assert trainable(net.hidden_layers[2])
        assert trainable(net.readout)

    def test_freeze_below_zero_trains_everything(self, net):
        net.freeze_below(0)
        assert all(trainable(layer) for layer in net.hidden_layers)

    def test_trainable_parameters_subset(self, net):
        net.freeze_below(2)
        # hidden2 (w_ff + w_rec) + readout
        assert len(net.trainable_parameters()) == 3

    def test_activations_at_layer0_is_input(self, net, x):
        acts, trace = net.activations_at(0, x)
        np.testing.assert_array_equal(acts, x)
        assert trace.entries == []

    @pytest.mark.parametrize("insertion", [0, 2])
    @pytest.mark.parametrize("shape", [(12, 20), (12, 4, 21)])
    def test_activations_at_validates_input_shape(self, net, insertion, shape):
        # Layer 0 included: the raw input must be [T, B, fan-in] too.
        with pytest.raises(ShapeError):
            net.activations_at(insertion, np.zeros(shape, dtype=np.float32))

    def test_activations_at_shape(self, net, x):
        acts, _ = net.activations_at(2, x)
        assert acts.shape == (12, 4, 12)
        assert set(np.unique(acts)).issubset({0.0, 1.0})

    def test_partial_forward_consistent_with_full(self, net, x):
        # Running frozen part then learning part must equal the full pass.
        full = net.forward(x).logits.data
        acts, _ = net.activations_at(2, x)
        partial = net.forward(acts, start_layer=2).logits.data
        np.testing.assert_allclose(full, partial, rtol=1e-5)

    def test_activations_do_not_flip_trainability(self, net, x):
        net.freeze_below(2)
        before = [trainable(layer) for layer in net.hidden_layers]
        net.activations_at(2, x)
        after = [trainable(layer) for layer in net.hidden_layers]
        assert before == after


class TestCloneAndState:
    def test_clone_matches(self, net, x):
        twin = net.clone()
        np.testing.assert_allclose(
            net.forward(x).logits.data, twin.forward(x).logits.data
        )

    def test_clone_is_independent(self, net):
        twin = net.clone()
        twin.hidden_layers[0].w_ff.data[0, 0] += 1.0
        assert net.hidden_layers[0].w_ff.data[0, 0] != twin.hidden_layers[0].w_ff.data[0, 0]

    def test_state_roundtrip(self, net, config, x):
        other = SpikingNetwork(config, seed=99)
        other.load_state_dict(net.state_dict())
        np.testing.assert_allclose(
            net.forward(x).logits.data, other.forward(x).logits.data
        )

    def test_wrong_w_rec_shape_is_rejected(self, net, config):
        state = net.state_dict()
        state["hidden0"]["w_rec"] = np.zeros((3, 3), dtype=np.float32)
        with pytest.raises(ShapeError, match="w_rec"):
            SpikingNetwork(config, seed=99).load_state_dict(state)

    @pytest.mark.parametrize(
        "layer, key", [("hidden1", "w_rec"), ("readout", "w_ff"), ("hidden0", None)]
    )
    def test_missing_entry_is_a_data_error(self, net, config, layer, key):
        state = net.state_dict()
        if key is None:
            del state[layer]
        else:
            del state[layer][key]
        with pytest.raises(DataError, match=key or layer):
            SpikingNetwork(config, seed=99).load_state_dict(state)


class TestPredictAndController:
    def test_predict_shape_and_range(self, net, x):
        preds = net.predict(x, batch_size=3)
        assert preds.shape == (4,)
        assert set(preds).issubset(set(range(5)))

    def test_predict_restores_trainability(self, net, x):
        net.freeze_below(2)
        before = [trainable(layer) for layer in net.hidden_layers] + [trainable(net.readout)]
        net.predict(x)
        after = [trainable(layer) for layer in net.hidden_layers] + [trainable(net.readout)]
        assert before == after

    def test_inference_saves_no_pass(self, net, x, monkeypatch):
        saved = []
        for cls in (RecurrentLIFLayer, LeakyReadout):

            def spy(layer, *args, _forward=cls.forward, **kwargs):
                out = _forward(layer, *args, **kwargs)
                saved.append(out._pass is not None)
                return out

            monkeypatch.setattr(cls, "forward", spy)
        net.set_trainable(True)
        net.predict(x, batch_size=3)
        net.activations_at(3, x)
        assert saved and not any(saved)
        saved.clear()
        net.forward(x)  # the spy does see a training pass save each layer's pass
        assert saved == [True] * net.num_weight_layers

    def test_inference_builds_no_pass(self, net, x, monkeypatch):
        """Inference and a frozen front build no pass only to drop it."""

        class Unbuildable:
            def __init__(self, *args):
                raise AssertionError("a pass was built for an output that drops it")

        monkeypatch.setattr(kernels, "_LIFPass", Unbuildable)
        monkeypatch.setattr(kernels, "_ReadoutPass", Unbuildable)
        net.set_trainable(True)
        net.predict(x, batch_size=3)
        net.freeze_below(2)
        net.activations_at(2, x)
        net.set_trainable(False)
        net.forward(x)  # a frozen network outside no_grad

    def test_failed_inference_leaves_recording_on(self, net, x):
        net.set_trainable(True)
        with pytest.raises(ShapeError):
            net.predict(x[:, :, :7])
        with pytest.raises(ShapeError):
            net.activations_at(2, x[:, :, :7])
        assert net.forward(x).logits.requires_grad

    def test_predict_empty_batch(self, net):
        preds = net.predict(np.zeros((5, 0, 20), dtype=np.float32))
        assert preds.shape == (0,)

    def test_adaptive_controller_changes_output(self, net, x):
        static = net.forward(x).logits.data
        adaptive = net.forward(
            x, controller=lambda layer: oracle.ScalarAdaptiveThreshold(12, adjust_interval=1)
        ).logits.data
        # The controller halves thresholds on silent steps, so spiking
        # activity — and thus logits — must differ.
        assert not np.allclose(static, adaptive)


class TestClassMask:
    """Per-task readout masking (task-incremental inference)."""

    def test_full_mask_is_bitwise_noop_fused_and_per_step(self, net, x):
        full = np.ones(5, dtype=bool)
        for forward in (
            lambda **kw: net.forward(x, **kw).logits.data,
            lambda **kw: oracle.network_forward(net, x, **kw)[0],
        ):
            unmasked = forward()
            masked = forward(class_mask=full)
            np.testing.assert_array_equal(unmasked, masked)

    def test_mask_restricts_argmax_to_active_classes(self, net, x):
        mask = np.array([False, False, True, True, False])
        preds = net.predict(x, class_mask=mask)
        assert set(preds.tolist()) <= {2, 3}

    def test_masked_logits_add_constant_penalty(self, net, x):
        from repro.snn.layers import MASKED_LOGIT

        mask = np.array([True, False, True, False, True])
        plain = net.forward(x).logits.data
        masked = net.forward(x, class_mask=mask).logits.data
        np.testing.assert_array_equal(masked[:, mask], plain[:, mask])
        np.testing.assert_allclose(
            masked[:, ~mask] - plain[:, ~mask], MASKED_LOGIT
        )

    def test_mask_supported_on_both_readout_paths(self, net, x):
        mask = np.array([True, False, True, False, True])
        fused = net.forward(x, class_mask=mask).logits.data
        steps = oracle.network_forward(net, x, class_mask=mask)[0]
        np.testing.assert_allclose(fused, steps, rtol=1e-10, atol=1e-12)

    def test_gradient_flows_through_masked_logits(self, net, x):
        mask = np.array([True, True, False, False, False])
        result = net.forward(x, class_mask=mask)
        readout_cross_entropy(result.logits, np.array([0, 1, 0, 1])).backward()
        for p in net.trainable_parameters():
            assert p.grad is not None

    def test_training_through_mask_stays_float32(self, net, x):
        """The penalty is built in the logits' dtype, so a masked step
        keeps the readout weight and its gradient float32."""
        from repro.training import Adam

        mask = np.array([True, True, False, False, False])
        opt = Adam(net.trainable_parameters(), learning_rate=1e-3)
        logits = net.forward(x, class_mask=mask).logits
        assert logits.data.dtype == np.float32
        readout_cross_entropy(logits, np.array([0, 1, 0, 1])).backward()
        opt.step()
        weight = net.readout.w_ff
        assert weight.grad.dtype == weight.data.dtype == np.float32

    def test_masked_argmax_matches_a_float64_penalty(self, net, x):
        from repro.snn.layers import MASKED_LOGIT

        mask = np.array([False, True, True, False, True])
        plain = net.forward(x).logits.data.astype(np.float64)
        want = (plain + np.where(mask, 0.0, MASKED_LOGIT)).argmax(axis=1)
        np.testing.assert_array_equal(net.predict(x, class_mask=mask), want)

    def test_wrong_shape_rejected(self, net, x):
        with pytest.raises(ShapeError, match="class_mask"):
            net.forward(x, class_mask=np.ones(4, dtype=bool))

    def test_empty_mask_rejected(self, net, x):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="at least one class"):
            net.forward(x, class_mask=np.zeros(5, dtype=bool))

    def test_integer_mask_accepted(self, net, x):
        bool_preds = net.predict(
            x, class_mask=np.array([True, False, True, False, False])
        )
        int_preds = net.predict(x, class_mask=np.array([1, 0, 1, 0, 0]))
        np.testing.assert_array_equal(bool_preds, int_preds)
