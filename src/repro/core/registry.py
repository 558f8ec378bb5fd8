"""The closed table of NCL methods, by name.

The scenario-first run API (:func:`repro.scenario.run_scenario`, the
``repro scenario run`` CLI) refers to methods by name instead of
hardcoding class references.  Each entry is the method class itself,
called with an :class:`~repro.config.ExperimentConfig`:

- ``naive`` — :class:`~repro.core.strategies.NaiveFinetune`
- ``raw`` — :class:`~repro.core.raw_replay.RawInputReplay`
- ``spikinglr`` — :class:`~repro.core.spikinglr.SpikingLR`
- ``replay4ncl`` — :class:`~repro.core.replay4ncl.Replay4NCL`

A method outside the table is passed to ``run_scenario`` as a factory.
"""

from __future__ import annotations

from repro.core.raw_replay import RawInputReplay
from repro.core.replay4ncl import Replay4NCL
from repro.core.spikinglr import SpikingLR
from repro.core.strategies import NaiveFinetune, NCLMethod
from repro.errors import ConfigError

__all__ = ["get_method", "available_methods"]

METHODS: dict[str, type[NCLMethod]] = {
    "naive": NaiveFinetune,
    "raw": RawInputReplay,
    "spikinglr": SpikingLR,
    "replay4ncl": Replay4NCL,
}


def get_method(name: str) -> type[NCLMethod]:
    """The method class named ``name``."""
    try:
        return METHODS[name]
    except KeyError:
        raise ConfigError(
            f"unknown method {name!r}; available: {available_methods()}"
        ) from None


def available_methods() -> list[str]:
    """Sorted names of every method."""
    return sorted(METHODS)
