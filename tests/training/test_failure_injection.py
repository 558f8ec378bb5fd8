"""Failure-injection tests: the training loop must fail loudly, not drift."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.config import NetworkConfig
from repro.errors import TrainingError
from repro.snn import SpikingNetwork
from repro.training import Adam, Trainer, TrainerConfig


@pytest.fixture
def setup():
    net = SpikingNetwork(NetworkConfig(layer_sizes=(12, 8, 6, 3), beta=0.9), seed=0)
    rng = np.random.default_rng(0)
    inputs = (rng.random((8, 12, 12)) < 0.3).astype(np.float32)
    labels = rng.integers(0, 3, 12)
    return net, inputs, labels


class TestNonFiniteDetection:
    def test_nan_weights_raise_training_error(self, setup):
        net, inputs, labels = setup
        # Corrupt a weight so the forward pass produces non-finite logits.
        net.readout.w_ff.data[0, 0] = np.nan
        opt = Adam(net.trainable_parameters(), learning_rate=1e-3)
        trainer = Trainer(net, opt, TrainerConfig(epochs=1, batch_size=12))
        with pytest.raises(TrainingError):
            trainer.train_epoch(inputs, labels)

    def test_nan_gradient_raises_in_adam(self):
        p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        opt = Adam([p], learning_rate=0.1)
        p.grad = np.array([np.inf, 0.0], dtype=np.float32)
        with pytest.raises(TrainingError):
            opt.step()


class TestRecoveryPaths:
    def test_grad_clip_bounds_update_after_spike_storm(self, setup):
        """Even a dense all-ones input cannot blow past the clip norm."""
        net, _, labels = setup
        storm = np.ones((8, 12, 12), dtype=np.float32)
        opt = Adam(net.trainable_parameters(), learning_rate=1e-3)
        trainer = Trainer(net, opt, TrainerConfig(epochs=1, batch_size=12, grad_clip=1.0))
        trainer.train_epoch(storm, labels)
        for p in net.trainable_parameters():
            assert np.all(np.isfinite(p.data))

    def test_training_continues_after_caught_failure(self, setup):
        net, inputs, labels = setup
        opt = Adam(net.trainable_parameters(), learning_rate=1e-3)
        trainer = Trainer(net, opt, TrainerConfig(epochs=1, batch_size=12))
        snapshot = net.readout.w_ff.data.copy()
        net.readout.w_ff.data[0, 0] = np.nan
        with pytest.raises(TrainingError):
            trainer.train_epoch(inputs, labels)
        # Restore and confirm the loop runs clean again.
        net.readout.w_ff.data = snapshot
        loss = trainer.train_epoch(inputs, labels)
        assert np.isfinite(loss)
