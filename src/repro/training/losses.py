"""Loss functions for spiking classification."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, cross_entropy

__all__ = ["readout_cross_entropy"]


def readout_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Cross-entropy on the max-over-time readout membrane.

    The readout layer already reduces its membrane trajectory to
    per-class maxima (Fig. 6a output convention), so this is a plain
    softmax cross-entropy over those maxima.
    """
    return cross_entropy(logits, labels)

