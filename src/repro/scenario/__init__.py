"""Scenario-first continual learning: built-ins by name, one run API.

The paper evaluates a single continual step (19 classes -> +1), but the
same replay machinery serves every continual setting — class-, domain-,
and task-incremental, online/blurry streams.  This package makes the
*scenario* the unit of configuration:

- :class:`~repro.scenario.base.Scenario` — a protocol that lazily
  yields :class:`~repro.scenario.base.ContinualStep` s (a
  :class:`~repro.data.tasks.ClassIncrementalSplit` plus per-step
  metadata).
- a closed name table (:func:`get` / :func:`available`) of six
  built-ins: ``single-step`` (the paper's protocol), ``sequential``
  (a stream of new classes), ``task-incremental`` (the same stream with
  the task id known at inference — per-task readout masks),
  ``domain-incremental`` (fixed classes, drifting input statistics),
  ``blurry`` (overlapping class boundaries), and ``streaming``
  (single-pass chunked task streams with anytime evaluation).
- :func:`run_scenario` — one entry point: pre-train, chain one NCL run
  per step (optionally store-backed via a single
  :class:`~repro.core.replayspec.ReplaySpec`), and score the whole
  trajectory with the standard CL metrics
  (:mod:`repro.scenario.metrics`).  With ``checkpoint=`` the run
  commits its state after every step (atomic, versioned —
  :mod:`repro.scenario.checkpoint`) and ``resume=True`` continues an
  interrupted run bitwise-identically.

Quickstart
----------
>>> from repro.scenario import run_scenario
>>> result = run_scenario("sequential", "replay4ncl", scale="ci")  # doctest: +SKIP
>>> print(result.describe())                                       # doctest: +SKIP
"""

from repro.scenario.base import ContinualStep, Scenario
from repro.scenario.builtin import (
    BlurryScenario,
    DomainIncrementalScenario,
    SequentialScenario,
    SingleStepScenario,
    StreamingScenario,
    TaskIncrementalScenario,
)
from repro.scenario.checkpoint import (
    CheckpointState,
    ScenarioCheckpoint,
    run_fingerprint,
)
from repro.scenario.metrics import (
    average_accuracy,
    backward_transfer,
    class_mask,
    forgetting,
)
from repro.scenario.registry import available, get
from repro.scenario.runner import ScenarioResult, run_scenario

__all__ = [
    "ContinualStep",
    "Scenario",
    "get",
    "available",
    "SingleStepScenario",
    "SequentialScenario",
    "TaskIncrementalScenario",
    "DomainIncrementalScenario",
    "BlurryScenario",
    "StreamingScenario",
    "ScenarioCheckpoint",
    "CheckpointState",
    "run_fingerprint",
    "average_accuracy",
    "forgetting",
    "backward_transfer",
    "class_mask",
    "ScenarioResult",
    "run_scenario",
]
