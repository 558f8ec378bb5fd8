"""The :class:`Tensor` weight holder and the reverse walk over layer passes.

Design notes
------------
The network this library trains is one fixed graph (paper Fig. 5-6):
recurrent LIF layers, a leaky readout with an optional class mask, and
the cross-entropy loss.  Each of them is its own backward.  While
training, a forward saves what BPTT needs on a *pass* object attached
to its output ``Tensor``; the forward hands the ``Tensor`` a function
that builds the pass, called only when the output requires grad.  A
pass has

- ``input`` — the Tensor it consumed;
- ``backward(grad)`` — given its output's gradient, sets the ``.grad``
  of its trainable weights and returns its input's gradient, or None
  when the input needs none.

:meth:`Tensor.backward` walks the passes from the loss back to the
input.  It stops at the first pass whose input needs no gradient: the
raw input, or the output of the frozen front.  :func:`no_grad` makes
every forward save no pass, so inference keeps nothing for backward.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.errors import GradientError, ShapeError

__all__ = ["Tensor", "no_grad"]

DEFAULT_DTYPE = np.float32

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager under which no forward saves a pass.

    >>> with no_grad():
    ...     w = Tensor([1.0], requires_grad=True)
    >>> w.requires_grad
    False
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Tensor:
    """An array with an optional gradient: a weight, or a layer pass's output.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``DEFAULT_DTYPE`` unless it is
        already a floating ndarray.
    requires_grad:
        Whether a gradient should reach this tensor.  Ignored (treated
        as False) inside a :func:`no_grad` block.
    make_pass:
        Zero-argument function building the pass that produced ``data``
        (module docstring); called only when the tensor requires grad,
        so inference builds no pass.
    """

    __slots__ = ("data", "grad", "requires_grad", "_pass")

    def __init__(self, data, requires_grad: bool = False, make_pass=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._pass = make_pass() if self.requires_grad and make_pass else None

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the wrapped array."""
        return self.data.shape

    def zero_grad(self) -> None:
        """Drop the gradient."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the passes that produced it.

        ``grad`` defaults to ones for a scalar (the loss); any other
        tensor needs an explicit upstream gradient.  Each pass, last
        first, sets its trainable weights' ``.grad`` and hands its input
        gradient down.  A leaf input that requires grad receives the
        gradient that reaches it.
        """
        if not self.requires_grad:
            raise GradientError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise GradientError("backward() on non-scalar output requires an explicit gradient")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"upstream gradient shape {grad.shape} does not match "
                f"tensor shape {self.data.shape}"
            )
        node = self
        while node._pass is not None:
            node, grad = node._pass.input, node._pass.backward(grad)
            if grad is None:
                return
        node.grad = grad
