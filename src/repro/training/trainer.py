"""The surrogate-gradient BPTT training loop.

One :class:`Trainer` drives one phase (pre-training, or the NCL phase on
the learning layers only).  It is agnostic about *where* its inputs come
from: raw rasters for ``start_layer=0``, or mixed current+latent
activations when an NCL method trains a split network.

Per-epoch evaluator callables let the caller attach task accuracies
(old/new) that land in the :class:`TrainingHistory` — this is how the
figure experiments collect their accuracy-vs-epoch curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.data.loaders import DataLoader
from repro.errors import ConfigError, TrainingError
from repro.seeding import default_rng
from repro.snn.network import ControllerFactory, SpikingNetwork
from repro.snn.state import SpikeTrace
from repro.training.losses import readout_cross_entropy
from repro.training.metrics import EpochRecord, TrainingHistory
from repro.training.optimizers import Optimizer

__all__ = ["Trainer", "TrainerConfig"]


@dataclass(frozen=True)
class TrainerConfig:
    """Loop hyper-parameters.

    Attributes:
        epochs: Number of passes over the data.
        batch_size: Minibatch size.
        start_layer: First weight layer executed; >0 trains a split
            network on pre-computed activations (the NCL phase).
        grad_clip: Optional global-norm gradient clip; None disables.
        shuffle: Reshuffle minibatches each epoch.
    """

    epochs: int
    batch_size: int
    start_layer: int = 0
    grad_clip: float | None = 5.0
    shuffle: bool = True

    def __post_init__(self):
        if self.epochs <= 0:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.start_layer < 0:
            raise ConfigError(f"start_layer must be >= 0, got {self.start_layer}")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ConfigError(f"grad_clip must be positive or None, got {self.grad_clip}")


class Trainer:
    """Runs BPTT epochs of a :class:`SpikingNetwork` phase."""

    def __init__(
        self,
        network: SpikingNetwork,
        optimizer: Optimizer,
        config: TrainerConfig,
        rng: np.random.Generator | None = None,
        controller: ControllerFactory | None = None,
    ):
        self.network = network
        self.optimizer = optimizer
        self.config = config
        self.rng = rng or default_rng()
        self.controller = controller
        #: SpikeTraces of every forward pass, grouped per epoch — the raw
        #: material of the hardware cost model.
        self.epoch_traces: list[list[SpikeTrace]] = []

    # ------------------------------------------------------------------
    def train_epoch(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        """One pass over the data; returns the mean minibatch loss."""
        loader = DataLoader(
            inputs,
            labels,
            batch_size=self.config.batch_size,
            shuffle=self.config.shuffle,
            rng=self.rng,
        )
        losses: list[float] = []
        traces: list[SpikeTrace] = []
        for batch_inputs, batch_labels in loader:
            result = self.network.forward(
                batch_inputs,
                start_layer=self.config.start_layer,
                controller=self.controller,
            )
            loss = readout_cross_entropy(result.logits, batch_labels)
            if not np.isfinite(loss.data):
                raise TrainingError("loss became non-finite; check learning rate")
            self.optimizer.zero_grad()
            loss.backward()
            self._clip_gradients()
            self.optimizer.step()
            losses.append(float(loss.data))
            traces.append(result.trace)
        self.epoch_traces.append(traces)
        return float(np.mean(losses))

    def _clip_gradients(self) -> None:
        if self.config.grad_clip is None:
            return
        total = 0.0
        for p in self.optimizer.parameters:
            if p.grad is not None:
                total += float((p.grad * p.grad).sum())
        norm = np.sqrt(total)
        if norm > self.config.grad_clip:
            # A python float scales in the gradient's own dtype; the numpy
            # float64 quotient would promote float32 gradients (NEP 50).
            scale = float(self.config.grad_clip / (norm + 1e-12))
            for p in self.optimizer.parameters:
                if p.grad is not None:
                    p.grad = p.grad * scale

    # ------------------------------------------------------------------
    def fit(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        evaluators: dict[str, Callable[[], float]] | None = None,
        epoch_callback: Callable[[EpochRecord], None] | None = None,
    ) -> TrainingHistory:
        """Run ``config.epochs`` epochs, recording telemetry.

        ``evaluators`` maps record fields (``"old_task_accuracy"``,
        ``"new_task_accuracy"``, ``"overall_accuracy"``) to zero-argument
        callables evaluated after every epoch.
        """
        evaluators = evaluators or {}
        unknown = set(evaluators) - {
            "old_task_accuracy",
            "new_task_accuracy",
            "overall_accuracy",
        }
        if unknown:
            raise ConfigError(f"unknown evaluator fields: {sorted(unknown)}")

        history = TrainingHistory()
        for epoch in range(self.config.epochs):
            with obs.span("train.epoch", category="train", epoch=epoch) as span:
                loss = self.train_epoch(inputs, labels)
                with obs.span("train.eval", category="train", epoch=epoch):
                    record = EpochRecord(
                        epoch=epoch,
                        loss=loss,
                        learning_rate=self.optimizer.learning_rate,
                        **{name: fn() for name, fn in evaluators.items()},
                    )
                span.set(loss=loss)
            history.append(record)
            if epoch_callback is not None:
                epoch_callback(record)
        return history
