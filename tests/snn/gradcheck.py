"""Numerical gradient verification for the autograd engine.

The test-suite certifies every primitive op with it: the analytic
gradient from :meth:`Tensor.backward` is compared to central finite
differences computed in float64.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autograd.tensor import Tensor

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
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = base[idx]

        base[idx] = original + eps
        plus = float(fn(*[Tensor(a) for a in inputs]).data.sum())
        base[idx] = original - eps
        minus = float(fn(*[Tensor(a) for a in inputs]).data.sum())
        base[idx] = original

        grad[idx] = (plus - minus) / (2.0 * eps)
        it.iternext()
    return grad


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    eps: float = 1e-4,
    atol: float = 1e-3,
    rtol: float = 1e-2,
) -> bool:
    """Verify analytic gradients of ``fn`` against finite differences.

    ``fn`` must accept ``len(inputs)`` tensors and return a tensor of any
    shape; the check differentiates ``sum(fn(...))``.  Raises
    ``AssertionError`` with a diagnostic on mismatch, returns True on
    success (so it can be used directly in ``assert gradcheck(...)``).
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in inputs]
    tensors = [Tensor(a) for a in arrays]
    for t in tensors:
        t.requires_grad = True
    out = fn(*tensors)
    out.sum().backward()

    for i, t in enumerate(tensors):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numerical_gradient(fn, arrays, i, eps=eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.max(np.abs(analytic - numeric))
            raise AssertionError(
                f"gradcheck failed for input {i}: max abs error {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True
