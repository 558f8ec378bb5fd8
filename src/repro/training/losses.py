"""The readout loss: softmax cross-entropy, fused with log-softmax."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.errors import ShapeError

__all__ = ["readout_cross_entropy"]


class _CrossEntropyPass:
    """The loss's pass: the closed-form logit gradient ``(softmax - onehot) / N``."""

    def __init__(self, logits: Tensor, log_probs: np.ndarray, targets: np.ndarray):
        self.input = logits
        self.log_probs, self.targets = log_probs, targets

    def backward(self, g: np.ndarray) -> np.ndarray:
        """The logits' gradient, scaled by the loss's upstream gradient ``g``."""
        n = self.log_probs.shape[0]
        grad = np.exp(self.log_probs)
        grad[np.arange(n), self.targets] -= 1.0
        return grad * (g / n)


def readout_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` ``[N, C]`` and integer labels ``[N]``.

    The readout layer already reduces its membrane trajectory to
    per-class means over time, so this is a plain softmax cross-entropy
    over those means, fused with log-softmax for stability.  The loss
    keeps the logits' dtype, and its backward hands the logits
    ``(softmax - onehot) / N``.
    """
    targets = np.asarray(labels)
    data = logits.data
    if data.ndim != 2:
        raise ShapeError(f"cross-entropy expects [N, C] logits, got shape {data.shape}")
    if targets.ndim != 1 or targets.shape[0] != data.shape[0]:
        raise ShapeError(f"targets shape {targets.shape} incompatible with logits {data.shape}")
    c = data.shape[1]
    if targets.min() < 0 or targets.max() >= c:
        raise ShapeError(f"target labels must lie in [0, {c}), got range "
                         f"[{targets.min()}, {targets.max()}]")
    n = data.shape[0]
    shifted = data - data.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = np.asarray(-log_probs[np.arange(n), targets].mean(), dtype=data.dtype)
    return Tensor(
        loss, logits.requires_grad, lambda: _CrossEntropyPass(logits, log_probs, targets)
    )
