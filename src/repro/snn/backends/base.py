"""The kernel-backend contract: sequence executors.

The fused sequence kernels (:mod:`repro.snn.kernels`) collapse the SNN
time loop into one pass per layer.  *What runs inside* those
passes is pluggable: a :class:`SequenceExecutor` implements the four
time-recurrent sweeps (LIF forward and reverse, leaky-readout forward
and reverse), mirroring tinygrad's ``runtime/ops_*.py`` split.
The executors and their selection live in :mod:`repro.snn.backends`.

**The contract** (see ``docs/backends.md`` for the full guide):

- The forward sweep owns the whole time loop, including Alg. 1's
  dynamic threshold: it calls the
  :class:`~repro.snn.threshold.ThresholdController` between timesteps
  and returns the ``[T, N]`` thresholds it used for the reverse sweep.
- Executors receive *projected currents*: the stacked feedforward GEMM
  (``x @ w_ff``) and the weight-gradient reductions stay on the numpy
  reference path, because BLAS accumulation order is the bitwise anchor
  of the whole reproduction — it is not reproducible by naive loops, so
  no backend reimplements it.  A backend only executes the per-timestep
  recurrence (elementwise state updates plus the per-step recurrent
  projection, which must be the call numpy's ``matmul`` makes into the
  same BLAS library — the C executor makes it from C).
- Every executor is bitwise-identical to the reference: it replicates
  the association order documented in :mod:`repro.snn.kernels`
  exactly, and the parity suite pins it to the reference bitwise.
- Availability is probed lazily and reported with a human-readable
  reason; probing must never raise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.snn.threshold import ThresholdController

__all__ = ["SweepSpec", "SequenceExecutor"]


@dataclass(frozen=True)
class SweepSpec:
    """Per-sequence neuron constants handed to an executor.

    One spec describes a whole ``[T, B, N]`` sweep of hard-reset (Eq. 2)
    neurons.  A threshold that changes mid-sequence is not a constant:
    the forward sweep takes the
    :class:`~repro.snn.threshold.ThresholdController` itself and returns
    the thresholds it used.  The reverse sweep reads no threshold.

    Attributes:
        beta: Membrane decay per timestep.
        vthr: The static threshold ``params.threshold``, or ``None``
            under a controller, whose ``value`` the sweep starts at.
    """

    beta: float
    vthr: float | None


class SequenceExecutor(ABC):
    """One executor of the fused sequence sweeps (the backend contract).

    Subclasses set :attr:`name` and implement :meth:`availability` plus
    the four sweeps; an instance joins the table in
    :mod:`repro.snn.backends`.  All array arguments and results are
    numpy ``[T, B, N]`` stacks; executors that compute on another
    substrate convert at the boundary.
    """

    #: The value ``REPRO_BACKEND`` selects.
    name: str

    @abstractmethod
    def availability(self) -> tuple[bool, str]:
        """Whether this executor can run here, with the reason.

        Returns ``(True, reason-it-was-selected)`` or ``(False,
        what-dependency-is-missing)``.  Must never raise: probes catch
        their own failures and fold them into the reason string.
        """

    @abstractmethod
    def lif_forward(
        self,
        ff: np.ndarray,
        w_rec: np.ndarray,
        spec: SweepSpec,
        controller: ThresholdController | None = None,
    ) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
        """Run the LIF forward recurrence over a whole sequence.

        Args:
            ff: Projected feedforward currents ``[T, B, N]`` (the
                ``x @ w_ff`` GEMM, precomputed on the reference path).
            w_rec: Recurrent weights ``[N, N]``.
            spec: Neuron constants for the sweep.
            controller: Optional dynamic threshold (Alg. 1).  The sweep
                starts at ``controller.value``; after step ``t`` it calls
                ``controller.step(t, counts, counts * t)`` exactly once,
                with ``counts`` the step's spikes summed over the batch
                (per neuron), and the returned value (scalar or ``[N]``)
                is the threshold of step ``t + 1``.

        Returns:
            ``(membrane, spikes, vthr)``: the ``[T, B, N]`` stacks plus
            the threshold the sweep used — ``spec.vthr`` itself for a
            static sweep, or the ``[T, N]`` per-step record (sweep dtype)
            under a controller.
        """

    @abstractmethod
    def lif_backward(
        self,
        g_spikes: np.ndarray,
        surrogate: np.ndarray,
        membrane: np.ndarray,
        spikes: np.ndarray,
        w_rec: np.ndarray,
        spec: SweepSpec,
    ) -> np.ndarray:
        """Run the reverse BPTT sweep; return ``gI`` ``[T, B, N]``.

        ``surrogate`` is the precomputed fast-sigmoid derivative at
        every timestep (reference path), the only place the threshold
        enters the backward.  The returned ``gI`` is the gradient
        w.r.t. the projected input current, from which the reference
        path derives all weight/input gradients as GEMMs.
        """

    @abstractmethod
    def readout_forward(self, projected: np.ndarray, beta: float) -> np.ndarray:
        """Integrate the leaky readout; return the membrane trajectory.

        ``projected`` is ``x @ w_ff`` ``[T, B, C]``; the result is the
        ``[T, B, C]`` trajectory of ``m[t] = m[t-1] * beta + p[t]``.
        """

    @abstractmethod
    def readout_backward(self, g_trajectory: np.ndarray, beta: float) -> np.ndarray:
        """Reverse sweep of the readout; return ``g_membrane`` ``[T, B, C]``."""

