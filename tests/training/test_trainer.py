"""Tests for the BPTT Trainer."""

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.errors import ConfigError
from repro.snn import SpikingNetwork
from repro.training import Adam, Trainer, TrainerConfig, top1_accuracy


@pytest.fixture
def setup():
    cfg = NetworkConfig(layer_sizes=(16, 12, 8, 4), beta=0.9)
    net = SpikingNetwork(cfg, seed=0)
    rng = np.random.default_rng(0)
    inputs = (rng.random((10, 24, 16)) < 0.3).astype(np.float32)
    labels = rng.integers(0, 4, 24)
    return net, inputs, labels


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainerConfig(epochs=0, batch_size=4)
        with pytest.raises(ConfigError):
            TrainerConfig(epochs=1, batch_size=0)
        with pytest.raises(ConfigError):
            TrainerConfig(epochs=1, batch_size=4, start_layer=-1)
        with pytest.raises(ConfigError):
            TrainerConfig(epochs=1, batch_size=4, grad_clip=0.0)


class TestTrainEpoch:
    def test_loss_decreases(self, setup):
        net, inputs, labels = setup
        opt = Adam(net.trainable_parameters(), learning_rate=2e-3)
        trainer = Trainer(net, opt, TrainerConfig(epochs=1, batch_size=12),
                          rng=np.random.default_rng(1))
        first = trainer.train_epoch(inputs, labels)
        for _ in range(10):
            last = trainer.train_epoch(inputs, labels)
        assert last < first

    def test_weights_change(self, setup):
        net, inputs, labels = setup
        before = net.hidden_layers[0].w_ff.data.copy()
        opt = Adam(net.trainable_parameters(), learning_rate=1e-3)
        trainer = Trainer(net, opt, TrainerConfig(epochs=1, batch_size=12))
        trainer.train_epoch(inputs, labels)
        assert not np.array_equal(before, net.hidden_layers[0].w_ff.data)

    def test_traces_recorded_per_epoch(self, setup):
        net, inputs, labels = setup
        opt = Adam(net.trainable_parameters(), learning_rate=1e-3)
        trainer = Trainer(net, opt, TrainerConfig(epochs=1, batch_size=12))
        trainer.train_epoch(inputs, labels)
        trainer.train_epoch(inputs, labels)
        assert len(trainer.epoch_traces) == 2
        assert len(trainer.epoch_traces[0]) == 2  # two minibatches

    def test_start_layer_trains_tail_only(self, setup):
        net, inputs, labels = setup
        net.freeze_below(1)
        frozen_before = net.hidden_layers[0].w_ff.data.copy()
        acts, _ = net.activations_at(1, inputs)
        opt = Adam(net.trainable_parameters(), learning_rate=1e-3)
        trainer = Trainer(net, opt, TrainerConfig(epochs=1, batch_size=12, start_layer=1))
        trainer.train_epoch(acts, labels)
        np.testing.assert_array_equal(frozen_before, net.hidden_layers[0].w_ff.data)

    def test_grad_clip_applied(self, setup):
        net, inputs, labels = setup
        opt = Adam(net.trainable_parameters(), learning_rate=1e-3)
        trainer = Trainer(
            net, opt, TrainerConfig(epochs=1, batch_size=24, grad_clip=1e-9)
        )

        clipped_norms = []
        original_step = opt.step

        def spy_step():
            total = sum(
                float((p.grad * p.grad).sum())
                for p in opt.parameters
                if p.grad is not None
            )
            clipped_norms.append(np.sqrt(total))
            original_step()

        opt.step = spy_step
        trainer.train_epoch(inputs, labels)
        assert all(norm <= 1.1e-9 for norm in clipped_norms)
        # The clip scales in the gradient's dtype: nothing leaves float32.
        for p in opt.parameters:
            assert p.data.dtype == p.grad.dtype == np.float32
            assert opt._m[id(p)].dtype == opt._v[id(p)].dtype == np.float32


class TestFit:
    def test_history_length(self, setup):
        net, inputs, labels = setup
        opt = Adam(net.trainable_parameters(), learning_rate=1e-3)
        trainer = Trainer(net, opt, TrainerConfig(epochs=3, batch_size=12))
        history = trainer.fit(inputs, labels)
        assert len(history) == 3
        assert [r.epoch for r in history] == [0, 1, 2]

    def test_evaluators_recorded(self, setup):
        net, inputs, labels = setup
        opt = Adam(net.trainable_parameters(), learning_rate=1e-3)
        trainer = Trainer(net, opt, TrainerConfig(epochs=2, batch_size=12))
        history = trainer.fit(
            inputs,
            labels,
            evaluators={
                "old_task_accuracy": lambda: top1_accuracy(net.predict(inputs), labels)
            },
        )
        assert all(r.old_task_accuracy is not None for r in history)

    def test_unknown_evaluator_rejected(self, setup):
        net, inputs, labels = setup
        opt = Adam(net.trainable_parameters(), learning_rate=1e-3)
        trainer = Trainer(net, opt, TrainerConfig(epochs=1, batch_size=12))
        with pytest.raises(ConfigError):
            trainer.fit(inputs, labels, evaluators={"bogus": lambda: 0.0})

    def test_epoch_callback_called(self, setup):
        net, inputs, labels = setup
        opt = Adam(net.trainable_parameters(), learning_rate=1e-3)
        trainer = Trainer(net, opt, TrainerConfig(epochs=2, batch_size=12))
        seen = []
        trainer.fit(inputs, labels, epoch_callback=lambda r: seen.append(r.epoch))
        assert seen == [0, 1]

    def test_learning_rate_recorded(self, setup):
        net, inputs, labels = setup
        opt = Adam(net.trainable_parameters(), learning_rate=5e-4)
        trainer = Trainer(net, opt, TrainerConfig(epochs=1, batch_size=12))
        history = trainer.fit(inputs, labels)
        assert history.final().learning_rate == 5e-4

