"""Multi-backend kernel dispatch for the fused SNN sequence sweeps.

The fused kernels (:mod:`repro.snn.kernels`) define *what* runs as one
autograd tape node; this package decides *who executes it*.  Mirroring
tinygrad's ``runtime/ops_*.py`` split, each
backend is a :class:`~repro.snn.backends.base.SequenceExecutor`
registered by name:

- ``numpy`` (:mod:`~repro.snn.backends.numpy_ref`) — the always-available
  bitwise reference every other backend is pinned to;
- ``c`` (:mod:`~repro.snn.backends.cffi_c`) — hand-written C kernels
  compiled lazily via cffi, bitwise-identical to numpy by construction.

Selection is per-process via ``REPRO_BACKEND=numpy|c|auto``
(default ``auto``: first available backend in speed order).  See
``docs/backends.md`` for the executor contract and how to add a
backend, and ``repro backends`` for the live availability table.
"""

from repro.snn.backends.base import (
    SequenceExecutor,
    SweepSpec,
    active,
    all_backends,
    get_backend,
    register_backend,
    select_backend,
    selection_report,
)
from repro.snn.backends.cffi_c import CffiExecutor
from repro.snn.backends.numpy_ref import NumpyExecutor

__all__ = [
    "SequenceExecutor",
    "SweepSpec",
    "NumpyExecutor",
    "CffiExecutor",
    "register_backend",
    "get_backend",
    "all_backends",
    "select_backend",
    "active",
    "selection_report",
]
