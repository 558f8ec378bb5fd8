"""The training substrate's gradient plumbing over numpy.

The paper trains recurrent spiking networks with surrogate-gradient BPTT
on PyTorch; this environment has no PyTorch, so we implement the same
math from scratch.  There is no general autodiff graph: the network is
one fixed chain (LIF layers, leaky readout, optional class mask,
cross-entropy), and each link is its own backward.  A training forward
saves a pass on its output :class:`Tensor`, and :meth:`Tensor.backward`
walks those passes in reverse.

Public surface
--------------
- :class:`Tensor` — the weight holder (``data``, ``grad``,
  ``requires_grad``, ``zero_grad``) that also carries the chain of passes.
- :func:`no_grad` — context manager under which no forward saves a pass.
- :func:`fast_sigmoid_surrogate` — the pseudo-derivative that replaces
  the Heaviside spike's derivative in BPTT (paper Fig. 5b).
"""

from repro.autograd.tensor import Tensor, no_grad
from repro.autograd.surrogate import fast_sigmoid_surrogate

__all__ = [
    "Tensor",
    "no_grad",
    "fast_sigmoid_surrogate",
]
