"""The kernel-backend contract: sequence executors and their registry.

The fused sequence kernels (:mod:`repro.snn.kernels`) collapse the SNN
time loop into single autograd tape nodes.  *What runs inside* those
nodes is pluggable: a :class:`SequenceExecutor` implements the four
time-recurrent sweeps (LIF/CuBa forward, LIF/CuBa reverse, leaky-readout
forward and reverse) and registers itself by name, mirroring tinygrad's
``runtime/ops_*.py`` split.

**The contract** (see ``docs/backends.md`` for the full guide):

- Executors receive *projected currents*: the stacked feedforward GEMM
  (``x @ w_ff``) and the weight-gradient reductions stay on the numpy
  reference path, because BLAS accumulation order is the bitwise anchor
  of the whole reproduction — it is not reproducible by naive loops, so
  no backend reimplements it.  A backend only executes the per-timestep
  recurrence (elementwise state updates plus, for recurrent layers, the
  per-step recurrent projection).
- A backend declares its :attr:`~SequenceExecutor.parity` class, and
  the only class is ``"bitwise"``: executors must replicate the
  reference association order documented in :mod:`repro.snn.kernels`
  exactly, and the parity suite pins them to the reference bitwise.
- Availability is probed lazily and reported with a human-readable
  reason; probing must never raise.
- Selection is per-process via the ``REPRO_BACKEND`` environment flag
  (``numpy | c | auto``, threaded through
  :func:`repro.config.backend_selection`).  ``auto`` walks the registry
  in ascending :attr:`~SequenceExecutor.priority` (speed) order and
  picks the first available executor; an explicitly requested backend
  that is unavailable raises :class:`~repro.errors.ConfigError` naming
  the missing dependency.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.config import backend_selection
from repro.errors import ConfigError

__all__ = [
    "SweepSpec",
    "SequenceExecutor",
    "register_backend",
    "get_backend",
    "all_backends",
    "available_backends",
    "select_backend",
    "active",
    "selection_report",
]


@dataclass(frozen=True)
class SweepSpec:
    """Static per-sequence neuron constants handed to an executor.

    One spec describes a whole ``[T, B, N]`` sweep — anything that can
    change mid-sequence (dynamic thresholds) is outside the fused path
    by construction.

    Attributes:
        beta: Membrane decay per timestep.
        vthr: Effective threshold — a float, or a per-neuron ``[N]``
            array already cast to the sweep dtype.
        hard: True for hard (reset-to-zero) reset, False for soft
            (subtract-threshold) reset.
        alpha: Synaptic decay of the CuBa variant, or None for plain LIF.
    """

    beta: float
    vthr: float | np.ndarray
    hard: bool
    alpha: float | None = None


class SequenceExecutor(ABC):
    """One executor of the fused sequence sweeps (the backend contract).

    Subclasses set :attr:`name`, :attr:`parity` and :attr:`priority`,
    implement :meth:`availability` plus the four sweeps, and register an
    instance with :func:`register_backend`.  All array arguments and
    results are numpy ``[T, B, N]`` stacks; executors that compute on
    another substrate convert at the boundary.
    """

    #: Registry name (the value ``REPRO_BACKEND`` selects).
    name: str = "abstract"
    #: ``"bitwise"`` — must replicate the reference association order
    #: exactly (the only parity class).
    parity: str = "bitwise"
    #: Auto-selection rank; lower is preferred (faster).
    priority: int = 100

    @abstractmethod
    def availability(self) -> tuple[bool, str]:
        """Whether this executor can run here, with the reason.

        Returns ``(True, reason-it-was-selected)`` or ``(False,
        what-dependency-is-missing)``.  Must never raise: probes catch
        their own failures and fold them into the reason string.
        """

    @abstractmethod
    def lif_forward(
        self, ff: np.ndarray, w_rec: np.ndarray | None, spec: SweepSpec
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run the (CuBa-)LIF forward recurrence over a whole sequence.

        Args:
            ff: Projected feedforward currents ``[T, B, N]`` (the
                ``x @ w_ff`` GEMM, precomputed on the reference path).
            w_rec: Optional recurrent weights ``[N, N]``.
            spec: Neuron constants for the sweep.

        Returns:
            ``(membrane, spikes)`` stacks, each ``[T, B, N]``.
        """

    @abstractmethod
    def lif_backward(
        self,
        g_spikes: np.ndarray,
        surrogate: np.ndarray,
        membrane: np.ndarray,
        spikes: np.ndarray,
        w_rec: np.ndarray | None,
        spec: SweepSpec,
    ) -> np.ndarray:
        """Run the reverse BPTT sweep; return ``gI`` ``[T, B, N]``.

        ``surrogate`` is the precomputed surrogate derivative at every
        timestep (reference path).  The returned ``gI`` is the gradient
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


_REGISTRY: dict[str, SequenceExecutor] = {}


def register_backend(executor: SequenceExecutor) -> SequenceExecutor:
    """Register an executor under its :attr:`~SequenceExecutor.name`.

    Re-registering a name replaces the previous executor (latest wins),
    so tests and downstream packages can shadow a built-in.  Returns the
    executor for decorator-style use.
    """
    if not executor.name or executor.name == "abstract":
        raise ConfigError("backend executors must set a concrete `name`")
    if executor.parity != "bitwise":
        raise ConfigError(
            f"backend {executor.name!r} declares unknown parity "
            f"{executor.parity!r}; expected 'bitwise'"
        )
    _REGISTRY[executor.name] = executor
    _invalidate_active()
    return executor


def all_backends() -> list[SequenceExecutor]:
    """Every registered executor, in auto-selection (priority) order."""
    return sorted(_REGISTRY.values(), key=lambda b: (b.priority, b.name))


def get_backend(name: str) -> SequenceExecutor:
    """Look up a registered executor by name.

    Raises:
        ConfigError: If no executor is registered under ``name``.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise ConfigError(
            f"unknown kernel backend {name!r}; registered backends: {known}"
        ) from None


def available_backends() -> list[SequenceExecutor]:
    """The registered executors whose availability probe passes."""
    return [b for b in all_backends() if b.availability()[0]]


def select_backend(name: str | None = None) -> SequenceExecutor:
    """Resolve a selection to one available executor.

    Args:
        name: A backend name, ``"auto"``, or None to read the
            ``REPRO_BACKEND`` environment flag.

    Returns:
        The selected executor.  ``auto`` probes the registry in priority
        order and always succeeds (the numpy reference is unconditionally
        available).

    Raises:
        ConfigError: When an explicitly named backend is unknown or its
            availability probe fails — the message names the missing
            dependency so the fix is actionable.
    """
    selection = backend_selection() if name is None else name.strip().lower()
    if selection == "auto":
        for backend in all_backends():
            if backend.availability()[0]:
                return backend
        raise ConfigError(
            "no kernel backend is available (the numpy reference should "
            "always be; is the registry empty?)"
        )
    backend = get_backend(selection)
    ok, reason = backend.availability()
    if not ok:
        raise ConfigError(
            f"kernel backend {selection!r} was requested via REPRO_BACKEND "
            f"but is unavailable: {reason}"
        )
    return backend


# The active executor is memoised per environment selection so the hot
# path (one lookup per fused tape node) costs a string compare, while
# flipping REPRO_BACKEND mid-process still takes effect immediately.
_ACTIVE: dict[str, SequenceExecutor | None] = {"selection": None, "backend": None}


def _invalidate_active() -> None:
    _ACTIVE["selection"] = None
    _ACTIVE["backend"] = None


def active() -> SequenceExecutor:
    """The executor the current ``REPRO_BACKEND`` selection resolves to."""
    selection = backend_selection()
    if _ACTIVE["selection"] != selection:
        _ACTIVE["backend"] = select_backend(selection)
        _ACTIVE["selection"] = selection
    return _ACTIVE["backend"]


def selection_report() -> list[dict[str, str | bool]]:
    """Availability/selection table behind ``repro backends``.

    One row per registered executor: name, declared parity class,
    availability, the probe's reason string, and whether the current
    selection resolves to it.  Diagnostic by design: an unsatisfiable
    explicit selection marks no row selected instead of raising, so the
    table still prints when the user is debugging exactly that.
    """
    try:
        selected = active()
    except ConfigError:
        selected = None
    rows: list[dict[str, str | bool]] = []
    for backend in all_backends():
        ok, reason = backend.availability()
        rows.append(
            {
                "name": backend.name,
                "parity": backend.parity,
                "available": ok,
                "reason": reason,
                "selected": backend is selected,
            }
        )
    return rows
