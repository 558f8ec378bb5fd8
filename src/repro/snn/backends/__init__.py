"""Kernel backends for the fused SNN sequence sweeps, and their selection.

The fused kernels (:mod:`repro.snn.kernels`) define *what* runs as one
layer pass; this package decides *who executes it*.  Mirroring
tinygrad's ``runtime/ops_*.py`` split, each backend is a
:class:`~repro.snn.backends.base.SequenceExecutor`, and
:data:`BACKENDS` holds the two there are, in speed order:

- ``c`` (:mod:`~repro.snn.backends.cffi_c`) — hand-written C kernels
  compiled lazily via cffi, bitwise-identical to numpy by construction;
- ``numpy`` (:mod:`~repro.snn.backends.numpy_ref`) — the always-available
  bitwise reference every other backend is pinned to.

Selection is per-process via ``REPRO_BACKEND=numpy|c|auto``, threaded
through :func:`repro.config.backend_selection` (default ``auto``: the
first available backend in the table).  An explicitly requested backend
that is unavailable raises :class:`~repro.errors.ConfigError` naming the
missing dependency.  See ``docs/backends.md`` for the executor contract,
and ``repro backends`` for the live availability table.
"""

from __future__ import annotations

from repro.config import backend_selection
from repro.errors import ConfigError
from repro.snn.backends.base import SequenceExecutor, SweepSpec
from repro.snn.backends.cffi_c import CffiExecutor
from repro.snn.backends.numpy_ref import NumpyExecutor

__all__ = [
    "SequenceExecutor",
    "SweepSpec",
    "NumpyExecutor",
    "CffiExecutor",
    "get_backend",
    "select_backend",
    "active",
    "selection_report",
]

#: Every executor by name, fastest first (the order ``auto`` probes).
BACKENDS: dict[str, SequenceExecutor] = {
    executor.name: executor for executor in (CffiExecutor(), NumpyExecutor())
}


def get_backend(name: str) -> SequenceExecutor:
    """Look up an executor by name.

    Raises:
        ConfigError: If no executor is named ``name``.
    """
    try:
        return BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ConfigError(
            f"unknown kernel backend {name!r}; registered backends: {known}"
        ) from None


def select_backend(name: str | None = None) -> SequenceExecutor:
    """Resolve a selection to one available executor.

    Args:
        name: A backend name, ``"auto"``, or None to read the
            ``REPRO_BACKEND`` environment flag.

    Returns:
        The selected executor.  ``auto`` probes :data:`BACKENDS` in
        order and always succeeds (the numpy reference is
        unconditionally available).

    Raises:
        ConfigError: When an explicitly named backend is unknown or its
            availability probe fails — the message names the missing
            dependency so the fix is actionable.
    """
    selection = backend_selection() if name is None else name.strip().lower()
    if selection == "auto":
        return next(b for b in BACKENDS.values() if b.availability()[0])
    backend = get_backend(selection)
    ok, reason = backend.availability()
    if not ok:
        raise ConfigError(
            f"kernel backend {selection!r} was requested via REPRO_BACKEND "
            f"but is unavailable: {reason}"
        )
    return backend


# The active executor is memoised per environment selection so the hot
# path (one lookup per layer pass) costs a string compare, while
# flipping REPRO_BACKEND mid-process still takes effect immediately.
_ACTIVE: dict[str, SequenceExecutor | None] = {"selection": None, "backend": None}


def active() -> SequenceExecutor:
    """The executor the current ``REPRO_BACKEND`` selection resolves to."""
    selection = backend_selection()
    if _ACTIVE["selection"] != selection:
        _ACTIVE["backend"] = select_backend(selection)
        _ACTIVE["selection"] = selection
    return _ACTIVE["backend"]


def selection_report() -> list[dict[str, str | bool]]:
    """Availability/selection table behind ``repro backends``.

    One row per executor: name, availability, the probe's reason string,
    and whether the current selection resolves to it.  Diagnostic by
    design: an unsatisfiable explicit selection marks no row selected
    instead of raising, so the table still prints when the user is
    debugging exactly that.
    """
    try:
        selected = active()
    except ConfigError:
        selected = None
    rows: list[dict[str, str | bool]] = []
    for backend in BACKENDS.values():
        ok, reason = backend.availability()
        rows.append(
            {
                "name": backend.name,
                "available": ok,
                "reason": reason,
                "selected": backend is selected,
            }
        )
    return rows
