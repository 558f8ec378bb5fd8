"""Fused sequence kernels: parity with the per-step oracle, gradient
checks, and the threshold-controller sweep.

The fused kernels promise *bitwise* forward parity with the per-step
oracle (:mod:`oracle`; see the bitwise-discipline note in
:mod:`repro.snn.backends.numpy_ref`).  Their weight gradients are one
GEMM over the flattened ``T·B`` axis where the oracle sums ``T``
per-step products, so gradients agree to ``oracle.GRAD_RTOL`` relative
to the largest oracle gradient in float32, and to <= 1e-5 absolute in
float64.
"""

import numpy as np
import pytest

import oracle
from gradcheck import gradcheck
from repro.autograd import Tensor
from repro.snn import (
    LeakyReadout,
    LIFParameters,
    PerNeuronAdaptiveThreshold,
    RecurrentLIFLayer,
    SpikingNetwork,
    ThresholdController,
    leaky_readout_sequence,
    lif_sequence,
)
from repro.config import NetworkConfig
from repro.errors import ConfigError, ShapeError
from repro.training.losses import readout_cross_entropy
from repro.training.optimizers import Adam


@pytest.fixture
def rng():
    return np.random.default_rng(42)


#: Two LIF operating points: a leakier neuron and ``NetworkConfig``'s
#: default (beta 0.95, Vthr 1.0).
NEURONS = {"lif": LIFParameters(beta=0.9), "lif-config": LIFParameters()}


def make_layer(neuron="lif"):
    return RecurrentLIFLayer(10, 7, NEURONS[neuron], rng=np.random.default_rng(5))


def run_both_paths(layer, x, g_up, make_controller=lambda: None):
    """Forward+backward fused, then on the oracle; ``(out, [gw_ff, gw_rec])`` each.

    ``make_controller`` builds a fresh threshold controller per path.
    """
    out = layer.forward(x, make_controller())
    out.backward(g_up)
    fused = out.data.copy(), [p.grad for p in layer.parameters()]
    for p in layer.parameters():
        p.zero_grad()
    spikes, backward = oracle.layer_forward(layer, x, make_controller())
    return fused, (spikes, list(backward(g_up)[1:]))


class TestLIFParity:
    @pytest.mark.parametrize("neuron", sorted(NEURONS))
    def test_forward_bitwise_gradient_close(self, rng, neuron):
        layer = make_layer(neuron)
        x = (rng.random((18, 3, 10)) < 0.35).astype(np.float32)
        g_up = rng.standard_normal((18, 3, 7)).astype(np.float32)
        (out_f, grads_f), (out_s, grads_s) = run_both_paths(layer, x, g_up)
        assert np.array_equal(out_f, out_s)
        oracle.assert_grads_close(grads_f, grads_s)


class TestGradientParityFloat64:
    """Fused gradients vs. the per-step oracle at gradcheck tolerance.

    Finite differences cannot probe through the Heaviside forward, so
    the per-step oracle (whose BPTT ``test_oracle.py`` certifies by
    finite differences through a smooth spike) is the reference; in
    float64 both agree to ~1e-12, comfortably within the 1e-5 budget.
    """

    ATOL = 1e-5

    def _to_f64(self, layer):
        for p in layer.parameters():
            p.data = p.data.astype(np.float64)

    @pytest.mark.parametrize("neuron", sorted(NEURONS))
    def test_grads_within_tolerance(self, rng, neuron):
        layer = make_layer(neuron)
        self._to_f64(layer)
        x = (rng.random((20, 3, 10)) < 0.35).astype(np.float64)
        g_up = rng.standard_normal((20, 3, 7))
        (_, grads_f), (_, grads_s) = run_both_paths(layer, x, g_up)
        for gf, gs in zip(grads_f, grads_s):
            assert np.allclose(gf, gs, atol=self.ATOL, rtol=0.0)


class TestReadoutParity:
    @pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
    def test_forward_bitwise_gradient_close(self, rng, masked):
        readout = LeakyReadout(8, 5, beta=0.9, rng=np.random.default_rng(2))
        x = (rng.random((16, 3, 8)) < 0.4).astype(np.float32)
        mask = np.array([True, False, True, True, False]) if masked else None
        g = rng.standard_normal((3, 5)).astype(np.float32)
        out = readout.forward(x, class_mask=mask)
        out.backward(g)
        logits, backward = oracle.readout_forward(readout, x, mask)
        assert np.array_equal(out.data, logits)
        oracle.assert_grads_close([readout.w_ff.grad], [backward(g)[1]])

    def test_numerical_gradcheck(self, rng):
        # The readout has no Heaviside, so true finite-difference
        # verification applies to the fused pass directly.
        x = rng.standard_normal((6, 2, 4))
        w = rng.standard_normal((4, 3))
        assert gradcheck(lambda a, b: leaky_readout_sequence(a, b, 0.9), [x, w])


W_REC = np.zeros((4, 4), dtype=np.float32)


class TestKernelAPI:
    def test_lif_sequence_shapes_and_binary(self, rng):
        x = (rng.random((12, 2, 6)) < 0.4).astype(np.float32)
        w = rng.standard_normal((6, 4)).astype(np.float32) * 0.8
        out = lif_sequence(x, w, LIFParameters(beta=0.9), W_REC)
        assert out.shape == (12, 2, 4)
        assert set(np.unique(out.data)).issubset({0.0, 1.0})

    def test_rejects_bad_shapes(self, rng):
        w = np.zeros((6, 4), dtype=np.float32)
        with pytest.raises(ShapeError):
            lif_sequence(np.zeros((5, 6), dtype=np.float32), w, LIFParameters(), W_REC)
        with pytest.raises(ShapeError):
            lif_sequence(
                np.zeros((5, 2, 3), dtype=np.float32), w, LIFParameters(), W_REC
            )
        with pytest.raises(ShapeError):
            lif_sequence(
                np.zeros((5, 2, 6), dtype=np.float32),
                w,
                LIFParameters(),
                w_rec=np.zeros((3, 3), dtype=np.float32),
            )

    def test_single_timestep_recurrent_gradient(self, rng):
        # T=1 means the recurrent weight never fires (S[-1] = 0); its
        # gradient must be zero, not missing (regression: the fused
        # backward used to return None for it).
        layer = make_layer()
        x = (rng.random((1, 2, 10)) < 0.8).astype(np.float32)
        g_up = np.ones((1, 2, 7), dtype=np.float32)
        (out_f, grads_f), (out_s, grads_s) = run_both_paths(layer, x, g_up)
        assert np.array_equal(out_f, out_s)
        for gf, gs in zip(grads_f, grads_s):  # one timestep: one product each
            assert np.array_equal(gf, gs)
        assert np.array_equal(grads_f[1], np.zeros_like(grads_f[1]))

    def test_frozen_weights_skip_weight_grad(self, rng):
        x = Tensor(
            (rng.random((8, 2, 6)) < 0.4).astype(np.float32), requires_grad=True
        )
        w = Tensor(rng.standard_normal((6, 4)).astype(np.float32))
        out = lif_sequence(x, w, LIFParameters(beta=0.9), W_REC)
        out.backward(np.ones(out.shape, dtype=np.float32))
        assert x.grad is not None
        assert w.grad is None


class TestOneGemmWeightGrads:
    """The fused pass reduces each weight gradient over ``T·B`` in one GEMM;
    the oracle adds ``T`` per-step products.  They agree to ``GRAD_RTOL``,
    and exactly where one product is all there is."""

    @pytest.mark.parametrize(
        "timesteps, batch, n_in, n_out",
        [(1, 3, 10, 7), (2, 3, 10, 7), (100, 36, 140, 64), (100, 36, 64, 48)],
    )
    def test_matches_per_step_sum(self, rng, timesteps, batch, n_in, n_out):
        layer = RecurrentLIFLayer(
            n_in, n_out, LIFParameters(beta=0.9), rng=np.random.default_rng(1)
        )
        x = (rng.random((timesteps, batch, n_in)) < 0.1).astype(np.float32)
        g_up = rng.standard_normal((timesteps, batch, n_out)).astype(np.float32)
        (out_f, (gw_ff, gw_rec)), (out_s, oracle_grads) = run_both_paths(layer, x, g_up)
        assert np.array_equal(out_f, out_s)
        oracle.assert_grads_close([gw_ff, gw_rec], oracle_grads)
        if timesteps == 1:  # one product, and S[-1] = 0 never fires
            assert np.array_equal(gw_ff, oracle_grads[0])
            assert np.array_equal(gw_rec, np.zeros((n_out, n_out), np.float32))
        if timesteps == 2:  # only S[0] @ gI[1] reaches the recurrent weight
            assert np.array_equal(gw_rec, oracle_grads[1])


class TestControllerSweep:
    """Dynamic thresholds (Alg. 1) run inside the fused sweep."""

    # The backward reads the per-step threshold record only inside the
    # surrogate, V[t] - vthr[t]: the fused pass and the oracle must see
    # the same record.
    @pytest.mark.parametrize("neuron", sorted(NEURONS))
    @pytest.mark.parametrize("per_neuron", [True, False], ids=["per-neuron", "scalar"])
    def test_forward_bitwise_gradient_close(self, rng, per_neuron, neuron):
        layer = make_layer(neuron)
        x = (rng.random((18, 3, 10)) < 0.35).astype(np.float32)
        g_up = rng.standard_normal((18, 3, 7)).astype(np.float32)

        def make_controller():
            if per_neuron:
                return PerNeuronAdaptiveThreshold(num_neurons=7, timesteps=18, adjust_interval=3)
            return oracle.ScalarAdaptiveThreshold(timesteps=18, adjust_interval=3)

        (out_f, grads_f), (out_s, grads_s) = run_both_paths(layer, x, g_up, make_controller)
        assert np.array_equal(out_f, out_s)
        oracle.assert_grads_close(grads_f, grads_s)

    def test_dynamic_controller_state_advances(self, rng):
        layer = make_layer()
        x = (rng.random((9, 2, 10)) < 0.5).astype(np.float32)
        controller = oracle.ScalarAdaptiveThreshold(timesteps=9)
        layer.forward(x, controller)
        assert controller.spike_count > 0

    def test_nonpositive_controller_threshold_rejected(self, rng):
        class Broken(ThresholdController):
            value = 1.0

            def step(self, t, spike_counts, spike_time_sums):
                return -1.0

        layer = make_layer()
        x = (rng.random((4, 2, 10)) < 0.5).astype(np.float32)
        with pytest.raises(ConfigError, match="non-positive"):
            layer.forward(x, Broken())

    def test_insertion_layer_2_training_teacher_forced(self, rng):
        """NCL at insertion layer 2: hidden layer 2 trains under the
        per-neuron controller.  At each of three Adam steps the fused and
        oracle passes run at the same weights: logits agree bitwise and
        gradients to ``GRAD_RTOL``; the step then applies the fused ones."""
        config = NetworkConfig(layer_sizes=(12, 10, 8, 6, 4))
        x = (rng.random((10, 5, 12)) < 0.3).astype(np.float32)
        labels = np.array([0, 1, 2, 3, 1])

        def factory(layer):
            return PerNeuronAdaptiveThreshold(
                num_neurons=layer.n_out, timesteps=10, adjust_interval=1
            )

        net = SpikingNetwork(config, seed=3)
        net.freeze_below(2)
        acts, _ = net.activations_at(2, x)
        optimizer = Adam(net.trainable_parameters(), learning_rate=0.01)
        for _ in range(3):
            optimizer.zero_grad()
            logits = net.forward(
                acts, start_layer=2, controller=factory, controller_from_layer=2
            ).logits
            readout_cross_entropy(logits, labels).backward()
            oracle_logits, backward = oracle.network_forward(
                net, acts, start_layer=2, controller=factory
            )
            assert np.array_equal(logits.data, oracle_logits)
            oracle_grads = backward(oracle.cross_entropy_grad(oracle_logits, labels))
            oracle.assert_grads_close([p.grad for p in optimizer.parameters], oracle_grads)
            optimizer.step()  # p.grad holds the fused pass's gradients
        assert net.hidden_layers[2].w_ff.requires_grad
        assert not net.hidden_layers[1].w_ff.requires_grad
        initial = SpikingNetwork(config, seed=3).hidden_layers[2].w_ff.data
        assert not np.array_equal(net.hidden_layers[2].w_ff.data, initial)


def test_network_forward_bitwise_parity(rng):
    net = SpikingNetwork(
        NetworkConfig(layer_sizes=(12, 8, 6, 4)), seed=1
    )
    x = (rng.random((10, 3, 12)) < 0.3).astype(np.float32)
    fused_logits = net.forward(x).logits.data
    assert np.array_equal(fused_logits, oracle.network_forward(net, x)[0])
