"""A small reverse-mode automatic-differentiation engine over numpy.

This package is the training substrate for the whole library: the paper
trains recurrent spiking networks with surrogate-gradient BPTT on PyTorch;
this environment has no PyTorch, so we implement the same math from
scratch.  The engine is tape-based with one kind of tape node: every
differentiable op is a :class:`Function` whose ``forward`` and
``backward`` share one instance, recorded as the output's context, and
:meth:`Tensor.backward` calls each node's ``backward`` once in reverse
topological order.

Public surface
--------------
- :class:`Tensor` — the differentiable array type, with the primitive
  ops ``+``, ``-``, ``*``, 2-D ``@``, ``sum``/``mean`` and indexing.
- :func:`tensor` / :func:`zeros` / :func:`stack` — creation.
- :func:`cross_entropy` (:mod:`repro.autograd.functional`) — the
  readout loss.
- :mod:`repro.autograd.surrogate` — the Heaviside spike op whose backward
  pass is a surrogate gradient (fast-sigmoid by default, as in the paper).
- :class:`Function` — the tape node: run a whole numpy computation
  (e.g. a fused SNN time loop) as one differentiable op.
- :func:`no_grad` — context manager disabling tape recording.
"""

from repro.autograd.tensor import (
    Function,
    Tensor,
    no_grad,
    stack,
    tensor,
    zeros,
)
from repro.autograd.functional import cross_entropy
from repro.autograd.surrogate import (
    SurrogateSpec,
    atan_surrogate,
    boxcar_surrogate,
    fast_sigmoid_surrogate,
    spike,
    straight_through_surrogate,
)

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "stack",
    "no_grad",
    "cross_entropy",
    "SurrogateSpec",
    "spike",
    "fast_sigmoid_surrogate",
    "atan_surrogate",
    "boxcar_surrogate",
    "straight_through_surrogate",
    "Function",
]
