"""The :class:`Tensor` type, its reverse-mode tape, and the primitive ops.

Design notes
------------
The engine is deliberately small and explicit.  A ``Tensor`` wraps an
``np.ndarray`` (float32 by default).  Every differentiable operation is
a :class:`Function`: ``Function.apply`` runs its ``forward`` on raw
arrays and, when any input requires grad, stores the ``Function``
instance as the output's ``_ctx`` — the single kind of tape node.
``backward()`` topologically sorts the recorded graph and calls each
node's ``backward`` once, accumulating one gradient per input.

Broadcasting follows numpy semantics; gradients of broadcast operands are
reduced back to the operand's shape by :func:`_unbroadcast`.

Recording can be disabled globally with the :func:`no_grad` context
manager, which the inference paths of the SNN library use so that frozen
layers never build a tape.
"""

from __future__ import annotations

import contextlib
from typing import Iterable

import numpy as np

from repro.errors import GradientError, ShapeError

__all__ = [
    "Tensor",
    "Function",
    "tensor",
    "zeros",
    "stack",
    "no_grad",
]

DEFAULT_DTYPE = np.float32

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables tape recording.

    >>> x = tensor([1.0], requires_grad=True)
    >>> with no_grad():
    ...     y = x * 2
    >>> y.requires_grad
    False
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches the pre-broadcast ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions numpy added during broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were size-1 in the original operand.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Function:
    """A differentiable op and, once applied, its tape node.

    A subclass implements

    - ``forward(self, *args, **kwargs)`` — receives **raw numpy arrays**
      (every positional ``Tensor`` argument is unwrapped) and returns one
      ndarray.  Anything the backward pass needs is kept on ``self``.
    - ``backward(self, grad)`` — receives the upstream gradient of the
      output and returns one gradient (or ``None``) per *positional
      forward argument*, in order; a single-argument op may return the
      bare array.  ``None`` is allowed only where
      ``self.needs_input_grad`` is False.

    ``apply`` runs the forward immediately and records one tape node,
    however many numpy operations the forward used internally: the fused
    SNN kernels (:mod:`repro.snn.kernels`) run a whole ``[T, B, N]`` time
    loop inside one node.
    """

    #: Per-positional-argument flags, set before ``forward`` runs:
    #: True where the argument is a Tensor that requires grad.
    needs_input_grad: tuple[bool, ...] = ()
    #: The Tensors whose flag is True, in argument order.
    parents: tuple["Tensor", ...] = ()

    def forward(self, *args, **kwargs) -> np.ndarray:
        """Compute the output from raw inputs; subclasses must override."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray):
        """Map the output gradient to input gradients; subclasses must override."""
        raise NotImplementedError

    @classmethod
    def apply(cls, *args, **kwargs) -> "Tensor":
        """Run the forward; record this node when an input requires grad."""
        ctx = cls()
        ctx.needs_input_grad = tuple(
            isinstance(a, Tensor) and a.requires_grad and _GRAD_ENABLED for a in args
        )
        out = Tensor(
            ctx.forward(*(a.data if isinstance(a, Tensor) else a for a in args), **kwargs)
        )
        if any(ctx.needs_input_grad):
            ctx.parents = tuple(a for a, need in zip(args, ctx.needs_input_grad) if need)
            out.requires_grad = True
            out._ctx = ctx
        return out

    def _input_grads(self, grad: np.ndarray) -> list[np.ndarray]:
        """Run ``backward`` once; return the gradients of ``parents``, in order."""
        result = self.backward(grad)
        if not isinstance(result, tuple):
            result = (result,)
        name = type(self).__name__
        if len(result) != len(self.needs_input_grad):
            raise GradientError(
                f"{name}.backward returned {len(result)} gradients "
                f"for {len(self.needs_input_grad)} forward arguments"
            )
        grads = []
        for position, (g, need) in enumerate(zip(result, self.needs_input_grad)):
            if not need:
                continue
            if g is None:
                raise GradientError(
                    f"{name}.backward returned None for differentiable "
                    f"argument {position}"
                )
            grads.append(np.asarray(g))
        return grads


class Tensor:
    """A differentiable array.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``DEFAULT_DTYPE`` unless it is
        already a floating ndarray.
    requires_grad:
        Whether gradients should flow into this tensor.  Ignored (treated
        as False) inside a :func:`no_grad` block.
    """

    __slots__ = ("data", "grad", "requires_grad", "_ctx")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        #: The Function that produced this tensor; None for leaves and
        #: for results recorded without a tape.
        self._ctx: Function | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the wrapped array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions of the wrapped array."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total element count of the wrapped array."""
        return self.data.size

    @property
    def dtype(self):
        """Dtype of the wrapped array."""
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """The single scalar value of a one-element tensor."""
        if self.data.size != 1:
            raise ShapeError("item() requires a tensor with exactly one element")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to ones for scalar tensors; non-scalar roots
        must pass an explicit upstream gradient.
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
                f"upstream gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
            )

        order = self._topo_order()
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.grad is None:
                node.grad = node_grad.copy()
            else:
                node.grad = node.grad + node_grad
            if node._ctx is None:
                continue
            for parent, contribution in zip(
                node._ctx.parents, node._ctx._input_grads(node_grad)
            ):
                existing = grads.get(id(parent))
                grads[id(parent)] = (
                    contribution if existing is None else existing + contribution
                )

    def _topo_order(self) -> list["Tensor"]:
        """Iterative post-order topological sort, reversed for backward."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            if node._ctx is not None:
                for parent in node._ctx.parents:
                    if id(parent) not in visited:
                        stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, self.dtype))

    def __add__(self, other) -> "Tensor":
        return _Add.apply(self, self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        return _Sub.apply(self, self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Tensor":
        return _Mul.apply(self, self._coerce(other))

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Tensor":
        return _MatMul.apply(self, self._coerce(other))

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable; return plain bool arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other

    # ------------------------------------------------------------------
    # Reductions and indexing
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (or all), gradient broadcast back."""
        return _Sum.apply(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis`` (or all), gradient scaled by 1/count."""
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = 1
            for ax in axes:
                count *= self.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def __getitem__(self, index) -> "Tensor":
        return _GetItem.apply(self, index=index)


# ----------------------------------------------------------------------
# Primitive ops
# ----------------------------------------------------------------------

class _Add(Function):
    def forward(self, a, b):
        self.shapes = a.shape, b.shape
        return a + b

    def backward(self, g):
        return _unbroadcast(g, self.shapes[0]), _unbroadcast(g, self.shapes[1])


class _Sub(Function):
    def forward(self, a, b):
        self.shapes = a.shape, b.shape
        return a - b

    def backward(self, g):
        return _unbroadcast(g, self.shapes[0]), _unbroadcast(-g, self.shapes[1])


class _Mul(Function):
    def forward(self, a, b):
        self.a, self.b = a, b
        return a * b

    def backward(self, g):
        need_a, need_b = self.needs_input_grad
        return (
            _unbroadcast(g * self.b, self.a.shape) if need_a else None,
            _unbroadcast(g * self.a, self.b.shape) if need_b else None,
        )


class _MatMul(Function):
    """2-D matrix product ``[m, k] @ [k, n]``."""

    def forward(self, a, b):
        if a.ndim != 2 or b.ndim != 2:
            raise ShapeError(
                f"matmul supports 2-D operands only, got {a.shape} @ {b.shape}"
            )
        self.a, self.b = a, b
        return a @ b

    def backward(self, g):
        need_a, need_b = self.needs_input_grad
        return (
            g @ self.b.T if need_a else None,
            self.a.T @ g if need_b else None,
        )


class _Sum(Function):
    def forward(self, a, axis, keepdims):
        self.shape, self.axis, self.keepdims = a.shape, axis, keepdims
        return np.asarray(a.sum(axis=axis, keepdims=keepdims))

    def backward(self, g):
        if self.axis is not None and not self.keepdims:
            g = np.expand_dims(g, self.axis)
        return np.broadcast_to(g, self.shape).copy()


class _GetItem(Function):
    def forward(self, a, index):
        self.shape, self.dtype, self.index = a.shape, a.dtype, index
        return np.asarray(a[index])

    def backward(self, g):
        full = np.zeros(self.shape, dtype=self.dtype)
        np.add.at(full, self.index, g)
        return full


class _Stack(Function):
    def forward(self, *arrays, axis):
        self.axis = axis
        return np.stack(arrays, axis=axis)

    def backward(self, g):
        return tuple(
            np.take(g, i, axis=self.axis) if need else None
            for i, need in enumerate(self.needs_input_grad)
        )


# ----------------------------------------------------------------------
# Free functions
# ----------------------------------------------------------------------

def tensor(data, requires_grad: bool = False) -> Tensor:
    """Create a tensor from array-like data."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    """All-zeros tensor of ``shape``."""
    return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("stack() requires at least one tensor")
    return _Stack.apply(*tensors, axis=axis)
