"""Finite-difference verification of a layer pass's backward.

The analytic gradient comes from the pass itself: ``fn``'s output
``Tensor`` runs its backward on an all-ones upstream gradient, which
sets each input's ``.grad``.  It is compared to central differences
computed in float64.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autograd import Tensor

__all__ = ["gradcheck", "numerical_gradient"]


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    index: int,
    eps: float = 1e-4,
) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs))`` w.r.t. input ``index``."""
    inputs = [np.asarray(a, dtype=np.float64) for a in inputs]
    base = inputs[index]
    grad = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        original = base[idx]
        base[idx] = original + eps
        plus = float(fn(*[Tensor(a) for a in inputs]).data.sum())
        base[idx] = original - eps
        minus = float(fn(*[Tensor(a) for a in inputs]).data.sum())
        base[idx] = original
        grad[idx] = (plus - minus) / (2.0 * eps)
    return grad


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    eps: float = 1e-4,
    atol: float = 1e-3,
    rtol: float = 1e-2,
) -> bool:
    """Verify the backward of the pass ``fn`` builds against finite differences.

    ``fn`` must accept ``len(inputs)`` tensors and return the output of
    one pass; the check differentiates ``sum(fn(...))``.  Raises
    ``AssertionError`` with a diagnostic on mismatch, returns True on
    success (so it can be used directly in ``assert gradcheck(...)``).
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in inputs]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*tensors)
    out.backward(np.ones_like(out.data))

    for i, t in enumerate(tensors):
        numeric = numerical_gradient(fn, arrays, i, eps=eps)
        if not np.allclose(t.grad, numeric, atol=atol, rtol=rtol):
            worst = np.max(np.abs(t.grad - numeric))
            raise AssertionError(
                f"gradcheck failed for input {i}: max abs error {worst:.3e}\n"
                f"analytic:\n{t.grad}\nnumeric:\n{numeric}"
            )
    return True
