"""Alg. 1 lines 1-5: pre-train the network every NCL method starts from."""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ExperimentConfig
from repro.data.tasks import ClassIncrementalSplit
from repro.seeding import spawn
from repro.snn.network import SpikingNetwork
from repro.training.metrics import TrainingHistory, top1_accuracy
from repro.training.optimizers import Adam
from repro.training.trainer import Trainer, TrainerConfig

__all__ = ["PretrainResult", "pretrain"]


@dataclass
class PretrainResult:
    """The shared pre-trained model plus its telemetry."""

    network: SpikingNetwork
    history: TrainingHistory
    test_accuracy: float


def pretrain(
    config: ExperimentConfig, split: ClassIncrementalSplit
) -> PretrainResult:
    """Alg. 1 lines 1-5: train the network on the old classes.

    Runs at ``config.pretrain.timesteps`` with ``eta_pre`` on the 19
    pre-training classes.  Every NCL method starts from a clone of the
    resulting network, so one pre-training run serves a whole sweep.
    """
    network = SpikingNetwork(config.network, seed=config.seed)
    inputs = split.pretrain_train.to_dense(config.pretrain.timesteps)
    labels = split.pretrain_train.labels
    optimizer = Adam(network.trainable_parameters(), config.pretrain.learning_rate)
    trainer = Trainer(
        network,
        optimizer,
        TrainerConfig(
            epochs=config.pretrain.epochs, batch_size=config.pretrain.batch_size
        ),
        rng=spawn(config.seed, "pretrain"),
    )
    history = trainer.fit(inputs, labels)

    test_inputs = split.pretrain_test.to_dense(config.pretrain.timesteps)
    accuracy = top1_accuracy(
        network.predict(test_inputs), split.pretrain_test.labels
    )
    return PretrainResult(
        network=network,
        history=history,
        test_accuracy=accuracy,
    )
