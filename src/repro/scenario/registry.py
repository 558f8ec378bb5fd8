"""The closed table of built-in scenarios, by name.

Mirrors the method table in :mod:`repro.core.registry`: each entry is a
scenario class from :mod:`repro.scenario.builtin`, and :func:`get`
instantiates one, forwarding keyword arguments.  A scenario outside the
table is passed to :func:`~repro.scenario.run_scenario` as an instance.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.scenario.base import Scenario
from repro.scenario.builtin import (
    BlurryScenario,
    DomainIncrementalScenario,
    SequentialScenario,
    SingleStepScenario,
    StreamingScenario,
    TaskIncrementalScenario,
)

__all__ = ["get", "available"]

SCENARIOS: dict[str, type] = {
    scenario.name: scenario
    for scenario in (
        SingleStepScenario,
        SequentialScenario,
        TaskIncrementalScenario,
        DomainIncrementalScenario,
        BlurryScenario,
        StreamingScenario,
    )
}


def get(name: str, **kwargs) -> Scenario:
    """Instantiate the scenario named ``name``.

    ``kwargs`` are forwarded to its class (e.g. ``get("sequential",
    steps_count=3)``).  Raises :class:`~repro.errors.ConfigError` for
    unknown names.
    """
    try:
        cls = SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {available()}"
        ) from None
    return cls(**kwargs)


def available() -> list[str]:
    """Sorted names of every scenario."""
    return sorted(SCENARIOS)
