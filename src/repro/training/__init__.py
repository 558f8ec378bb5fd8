"""Training substrate: optimizers, losses, the BPTT trainer, metrics.

The paper trains with surrogate-gradient BPTT (§II-B) and Adam; the NCL
phase differs only in which parameters are trainable, which data is fed
(current ∪ latent replay) and the learning-rate / threshold policies.
The :class:`Trainer` here is phase-agnostic: methods in
:mod:`repro.core` compose it.
"""

from repro.training.losses import readout_cross_entropy
from repro.training.metrics import (
    EpochRecord,
    TrainingHistory,
    top1_accuracy,
)
from repro.training.optimizers import Adam, Optimizer
from repro.training.trainer import Trainer, TrainerConfig

__all__ = [
    "Optimizer",
    "Adam",
    "readout_cross_entropy",
    "Trainer",
    "TrainerConfig",
    "TrainingHistory",
    "EpochRecord",
    "top1_accuracy",
]
