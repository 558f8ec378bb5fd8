"""The readout loss: cross-entropy fused with log-softmax.

Surrogate-gradient BPTT training in this library needs one loss, the
softmax cross-entropy over the readout logits; it is a single
:class:`~repro.autograd.tensor.Function` so that its gradient is the
classic ``(softmax - onehot) / N`` rather than a chain of primitives.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Function, Tensor
from repro.errors import ShapeError

__all__ = ["cross_entropy"]


class _CrossEntropy(Function):
    def forward(self, logits, targets):
        n = logits.shape[0]
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        self.log_probs, self.targets = shifted - log_sum, targets
        loss = -self.log_probs[np.arange(n), targets].mean()
        return np.asarray(loss, dtype=logits.dtype)

    def backward(self, g):
        n = self.log_probs.shape[0]
        grad = np.exp(self.log_probs)
        grad[np.arange(n), self.targets] -= 1.0
        return grad * (g / n)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` ``[N, C]`` and integer targets ``[N]``.

    Fused with log-softmax for stability; the gradient is the classic
    ``(softmax - onehot) / N``.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects [N, C] logits, got shape {logits.shape}")
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"targets shape {targets.shape} incompatible with logits {logits.shape}"
        )
    c = logits.shape[1]
    if targets.min() < 0 or targets.max() >= c:
        raise ShapeError(f"target labels must lie in [0, {c}), got range "
                         f"[{targets.min()}, {targets.max()}]")
    return _CrossEntropy.apply(logits, targets=targets)
