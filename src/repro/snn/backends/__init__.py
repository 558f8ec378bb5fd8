"""The one executor of the fused SNN sequence sweeps.

The fused kernels (:mod:`repro.snn.kernels`) compute a layer pass's
GEMMs and hand its time-recurrent sweeps to :func:`active`, the
process's one :class:`~repro.snn.backends.cffi_c.CffiExecutor`.  It runs
the hand-written C kernels when their lazy probe (build plus bitwise
self-check) passed and the arrays are ones the kernels take, and the
numpy reference sweeps of :mod:`~repro.snn.backends.numpy_ref` (the
contract the C kernels are pinned to) otherwise.  Both give the same
bits, so the path decides how fast a result arrives, never the result.
``repro info`` prints the path in use and the probe's reason; see
``docs/backends.md``.
"""

from __future__ import annotations

from repro.snn.backends.cffi_c import CffiExecutor
from repro.snn.backends.numpy_ref import SweepSpec

__all__ = ["SweepSpec", "CffiExecutor", "active"]

#: Probed on first use, so importing repro compiles nothing.
_EXECUTOR = CffiExecutor()


def active() -> CffiExecutor:
    """The process's executor; its ``name`` is the path in use, ``"c"`` or ``"numpy"``."""
    return _EXECUTOR
