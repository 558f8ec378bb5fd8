"""Loss functions for spiking classification."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, cross_entropy

__all__ = ["readout_cross_entropy"]


def readout_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Cross-entropy on the readout's logits.

    The readout layer already reduces its membrane trajectory to
    per-class means over time, so this is a plain softmax cross-entropy
    over those means.
    """
    return cross_entropy(logits, labels)

