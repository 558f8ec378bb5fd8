"""`run_scenario`: one entry point from scenario name to CL metrics.

Ties the redesign together: resolve the scenario (by name or instance)
and the method (by registry name or factory), pre-train on the first
step's base data, chain one NCL run per step — optionally store-backed
through a per-step :class:`~repro.replaystore.federation.FederatedReplayStore`
governed by a single :class:`~repro.core.replayspec.ReplaySpec` — and
evaluate the network on **every task seen so far after every step**,
producing the accuracy matrix the standard continual-learning metrics
(:mod:`repro.scenario.metrics`) are defined on.

Task-incremental scenarios (steps carrying
:attr:`~repro.scenario.base.ContinualStep.task_classes`) are evaluated
with the task id known at inference: every matrix entry ``R[i, j]`` —
including the pre-training row — is measured with the readout masked to
task ``j``'s class group (:func:`~repro.scenario.metrics.class_mask`
into :meth:`~repro.snn.network.SpikingNetwork.predict`), so average
accuracy, forgetting, and BWT all read under masked inference.
Training is never masked — only evaluation changes between the class-
and task-incremental regimes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro import obs
from repro.config import ExperimentConfig
from repro.core.pipeline import PretrainResult, pretrain
from repro.core.registry import get_method
from repro.core.replayspec import ReplaySpec, resolve_replay_spec
from repro.core.strategies import NCLMethod, NCLResult
from repro.data.datasets import SpikeDataset
from repro.data.synthetic_shd import SyntheticSHD
from repro.errors import ConfigError, DataError
from repro.replaystore.federation import FederatedReplayStore
from repro.scenario.base import ContinualStep, Scenario
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
from repro.scenario.registry import get
from repro.snn.network import SpikingNetwork
from repro.training.metrics import top1_accuracy

__all__ = ["ScenarioResult", "run_scenario"]


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Outcome of a full scenario run.

    Attributes:
        scenario: The scenario's registry name.
        method: The method as it was addressed: the registry name when
            one was passed, otherwise the method's own ``name``
            attribute.
        steps: One :class:`~repro.core.strategies.NCLResult` per
            continual step.
        step_names: The scenario's human-readable step labels.
        accuracy_matrix: ``[S+1, S+1]`` session-by-task top-1 matrix
            (see :mod:`repro.scenario.metrics` for the convention);
            ``NaN`` above the diagonal.  Every entry — including the
            session-0 row — is measured under the *method's NCL
            deployment semantics* (NCL timesteps, adaptive threshold
            from the insertion layer), so column deltas read as actual
            forgetting/transfer, never as the systematic
            pretrain-vs-NCL timestep gap.
        pretrain_accuracy: Base-task accuracy of the pre-trained network
            (``R[0, 0]``, same NCL deployment semantics as the rest of
            the matrix).
        store_root: Federation root when the run was store-backed; None
            when dense.
        task_classes: The final step's per-task class groups when the
            scenario is task-incremental (every matrix entry ``R[i, j]``
            was then measured with the readout masked to
            ``task_classes[j]``); None for task-agnostic scenarios,
            whose matrix is measured unmasked.
        trace: Spans + metrics the run recorded (see :mod:`repro.obs`);
            None unless tracing was enabled (``REPRO_TRACE`` or
            :func:`repro.obs.use_recorder`).
    """

    scenario: str
    method: str
    steps: tuple[NCLResult, ...]
    step_names: tuple[str, ...]
    accuracy_matrix: np.ndarray
    pretrain_accuracy: float
    store_root: str | None = None
    task_classes: tuple[tuple[int, ...], ...] | None = None
    trace: obs.TraceReport | None = None

    @property
    def task_incremental(self) -> bool:
        """Whether the matrix was measured under per-task readout masks."""
        return self.task_classes is not None

    # -- standard CL metrics -------------------------------------------
    @property
    def average_accuracy(self) -> float:
        """Mean final accuracy over every task seen (base + all steps)."""
        return average_accuracy(self.accuracy_matrix)

    @property
    def forgetting(self) -> float:
        """Mean (best historical - final) accuracy over non-final tasks."""
        return forgetting(self.accuracy_matrix)

    @property
    def backward_transfer(self) -> float:
        """Mean (final - just-learned) accuracy over non-final tasks."""
        return backward_transfer(self.accuracy_matrix)

    # -- per-step views -------------------------------------------------
    @property
    def old_accuracy_trajectory(self) -> tuple[float, ...]:
        """Old-task accuracy after each step (forgetting accumulation)."""
        return tuple(step.final_old_accuracy for step in self.steps)

    @property
    def new_accuracy_trajectory(self) -> tuple[float, ...]:
        """New-task accuracy after each step (plasticity trajectory)."""
        return tuple(step.final_new_accuracy for step in self.steps)

    def describe(self) -> str:
        """Multi-line human-readable summary of the run."""
        lines = [
            f"scenario {self.scenario!r} x method {self.method!r}: "
            f"{len(self.steps)} step(s)",
            f"  pretrain: base accuracy {self.pretrain_accuracy:.3f}",
        ]
        for name, step in zip(self.step_names, self.steps):
            lines.append(
                f"  {name}: old={step.final_old_accuracy:.3f} "
                f"new={step.final_new_accuracy:.3f} "
                f"overall={step.final_overall_accuracy:.3f}"
            )
        if self.task_incremental:
            lines.append(
                "  task-incremental eval: readout masked to each task's "
                f"classes ({len(self.task_classes)} tasks)"
            )
        lines.append(
            f"  average accuracy {self.average_accuracy:.3f} | "
            f"forgetting {self.forgetting:+.3f} | "
            f"backward transfer {self.backward_transfer:+.3f}"
        )
        if self.store_root is not None:
            lines.append(f"  replay federation: {self.store_root}")
        return "\n".join(lines)


def _task_accuracy(
    network: SpikingNetwork,
    dataset: SpikeDataset,
    timesteps: int,
    method: NCLMethod,
    mask: np.ndarray | None = None,
) -> float:
    """Top-1 on one task's test set under the method's deployment semantics.

    Matches the evaluators inside :meth:`NCLMethod.run`: the frozen
    front keeps its static pre-trained threshold; adaptive thresholds
    apply from the insertion layer up.  Like those evaluators, it is
    not charged to the hardware cost model.  ``mask`` restricts the
    readout to the active task's classes (task-incremental inference);
    ``None`` evaluates over the full label space.
    """
    predictions = network.predict(
        dataset.to_dense(timesteps),
        controller=method.make_controller(),
        controller_from_layer=method.insertion_layer(),
        class_mask=mask,
    )
    return top1_accuracy(predictions, dataset.labels)


def _step_masks(
    step: ContinualStep, num_tasks: int, num_classes: int, task_aware: bool
) -> "list[np.ndarray | None]":
    """Per-task readout masks for one evaluation row (None = unmasked).

    A scenario is task-incremental iff its *first* step carries
    ``task_classes``; every later step must then carry one group per
    task seen so far (``num_tasks`` of them) — a scenario that flips
    mid-stream, or under-/over-counts its tasks, is malformed.
    """
    if not task_aware:
        if step.task_classes is not None:
            raise DataError(
                f"step {step.index} carries task_classes but the scenario's "
                "first step did not — task membership must be declared from "
                "the start"
            )
        return [None] * num_tasks
    if step.task_classes is None:
        raise DataError(
            f"step {step.index} carries no task_classes but the scenario's "
            "first step did — task membership must cover every step"
        )
    if len(step.task_classes) != num_tasks:
        raise DataError(
            f"step {step.index} declares {len(step.task_classes)} task "
            f"class groups, expected {num_tasks} (base task + one per step "
            "seen so far)"
        )
    return [class_mask(group, num_classes) for group in step.task_classes]


def _reopen_federation(replay: ReplaySpec, recorded: dict | None):
    """Open the federation of a resumed store-backed run and verify it.

    The checkpoint manifest records the federation's member list and
    rebalance counter at commit time; a federation on disk that has
    since diverged (extra members from a crash inside the tiny
    adopt-to-commit window, a rewound counter, manual edits) cannot be
    continued bitwise and is rejected with a clear error instead of
    silently producing a forked trajectory.
    """
    federation = FederatedReplayStore.open(Path(replay.store_dir))
    recorded = recorded or {}
    members = [str(name) for name in recorded.get("members", [])]
    rebalances = int(recorded.get("rebalances", 0))
    if list(federation.member_names) != members or federation.rebalances != rebalances:
        raise DataError(
            f"replay federation at {replay.store_dir} diverged from the "
            f"checkpoint (members {list(federation.member_names)} vs recorded "
            f"{members}, rebalances {federation.rebalances} vs {rebalances}); "
            "delete the store and the checkpoint to start over"
        )
    return federation


def _federation_payload(federation) -> dict | None:
    """Manifest slot recording the federation state at commit time."""
    if federation is None:
        return None
    return {
        "members": list(federation.member_names),
        "rebalances": federation.rebalances,
    }


def run_scenario(
    scenario: Scenario | str,
    method: str | Callable[[ExperimentConfig], NCLMethod] = "replay4ncl",
    *,
    scale: str = "ci",
    generator: SyntheticSHD | None = None,
    experiment: ExperimentConfig | None = None,
    pretrained: PretrainResult | SpikingNetwork | None = None,
    replay: ReplaySpec | str | Path | None = None,
    checkpoint: ScenarioCheckpoint | str | Path | None = None,
    resume: bool = False,
    max_steps: int | None = None,
    on_step: Callable[[int, NCLResult], None] | None = None,
) -> ScenarioResult:
    """Run a whole scenario end-to-end and return its CL metrics.

    Args:
        scenario: A built-in's name (``"single-step"``,
            ``"sequential"``, ... — see :func:`repro.scenario.available`)
            or a ready :class:`~repro.scenario.base.Scenario` instance
            (for non-default parameters, build one via
            :func:`repro.scenario.get`).
        method: A method name (see :mod:`repro.core.registry`) or a
            factory ``config -> NCLMethod``, called once per step.
        scale: Scale preset supplying ``generator``/``experiment`` when
            those are not given explicitly (see
            :mod:`repro.eval.scale`).
        generator: Dataset generator; defaults to the scale preset's.
        experiment: Experiment config; defaults to the scale preset's.
        pretrained: Skip pre-training by supplying the starting network
            — a :class:`~repro.core.pipeline.PretrainResult` or a bare
            :class:`~repro.snn.network.SpikingNetwork` (then the
            base-task accuracy is measured here).  Must match the
            scenario's first step (same base classes), which is the
            caller's responsibility.
        replay: A :class:`~repro.core.replayspec.ReplaySpec` (or bare
            path, promoted to one).  Store-backed runs persist each
            step's latent data as federation member ``step-<k>`` under
            ``replay.store_dir``, adopted and then rebalanced under
            the federation budget *after* the step trained: the
            budget caps the archive, never the current step's replay
            set, so trajectories stay bitwise-identical to the dense
            run.
        checkpoint: Checkpoint directory (or a ready
            :class:`~repro.scenario.checkpoint.ScenarioCheckpoint`).
            When given, the run commits its state after pre-training
            and after every completed step — atomically, so a kill at
            any instant leaves a valid checkpoint (see
            :mod:`repro.scenario.checkpoint`).
        resume: Continue from ``checkpoint`` instead of starting over.
            The continuation is bitwise-identical to an uninterrupted
            run: completed steps are skipped (their committed metrics
            and the trained network are restored; ``pretrained`` is
            then ignored), and the stream picks up at the first
            unfinished step.  An empty/absent checkpoint directory is a
            fresh start; a damaged or mismatched one raises
            :class:`~repro.errors.DataError`.  The one restoration
            loss: skipped steps' :class:`NCLResult`\\ s carry no
            network (only the last completed step's weights persist)
            and empty epoch-cost traces — matrices, metrics, and the
            final network are exact.
        max_steps: Stop (cleanly) after this many completed steps even
            if the scenario yields more — with ``checkpoint`` set this
            produces a deliberately interrupted run that ``resume``
            continues (the CLI's ``--stop-after``).
        on_step: Callback ``(step_index, result)`` fired after each
            live step is evaluated (and, when checkpointing, after its
            state is committed).  Restored steps do not fire.  The
            resume test harness uses this to kill the process at exact
            step boundaries.
    """
    if isinstance(scenario, str):
        scenario = get(scenario)
    if not isinstance(scenario, Scenario):
        raise ConfigError(
            f"scenario must be a registry name or Scenario, got "
            f"{type(scenario).__name__}"
        )
    method_label = method if isinstance(method, str) else None
    method_factory = get_method(method) if isinstance(method, str) else method
    if isinstance(method_factory, NCLMethod):
        raise ConfigError(
            "pass a method factory (registry name, class, or config -> "
            "NCLMethod callable), not a method instance: each step needs "
            "a fresh method"
        )
    if resume and checkpoint is None:
        raise ConfigError("resume=True requires a checkpoint directory")
    if max_steps is not None and max_steps <= 0:
        raise ConfigError(f"max_steps must be positive, got {max_steps}")
    store: ScenarioCheckpoint | None = None
    if checkpoint is not None:
        store = (
            checkpoint
            if isinstance(checkpoint, ScenarioCheckpoint)
            else ScenarioCheckpoint(checkpoint)
        )

    if generator is None or experiment is None:
        from repro.eval.scale import get_scale  # lazy: avoids eval<->scenario cycle

        preset = get_scale(scale)
        if experiment is None:
            experiment = preset.experiment
        if generator is None:
            generator = SyntheticSHD(preset.shd, seed=experiment.seed)

    step_iter = iter(scenario.steps(generator, experiment))
    try:
        first = next(step_iter)
    except StopIteration:
        raise DataError(f"scenario {scenario.name!r} yielded no steps") from None

    # Task-incremental iff the first step declares task membership; the
    # base task's row is then masked to its own class group like every
    # later entry of column 0.  Validate the first step's groups *now* —
    # a malformed task-IL scenario must fail before the expensive
    # pre-training and step-0 NCL runs, not after them.
    task_aware = first.task_classes is not None
    num_classes = experiment.network.layer_sizes[-1]
    first_masks = _step_masks(first, 2, num_classes, task_aware)

    # Same promotion + type validation as every other entry point (a
    # bare path becomes a spec; anything else non-spec errors).  Before
    # pre-training: an invalid spec must fail fast, and the checkpoint
    # fingerprint covers the spec's canonical form.
    replay = resolve_replay_spec(replay)
    probe = method_factory(experiment)
    method_name = method_label if method_label is not None else probe.name

    state: CheckpointState | None = None
    fingerprint = ""
    if store is not None:
        fingerprint = run_fingerprint(
            scenario=scenario,
            method=method_name,
            experiment=experiment,
            replay=replay,
        )
        if resume:
            state = store.load(fingerprint=fingerprint)

    recorder = obs.current()
    trace_mark = recorder.mark()
    with obs.span("scenario.run", category="scenario", scenario=scenario.name):
        # ---- session 0: pre-train on the first step's base data (or
        # restore the interrupted run's committed state) ---------------
        if state is not None:
            with obs.span(
                "scenario.restore", category="scenario", steps=state.steps_completed
            ):
                network = SpikingNetwork(
                    experiment.network, seed=experiment.seed
                )
                network.load_state_dict(state.network_state)
                pretrain_accuracy = state.pretrain_accuracy
            federation = (
                _reopen_federation(replay, state.federation)
                if replay is not None and replay.store_backed
                else None
            )
        else:
            with obs.span("scenario.pretrain", category="scenario"):
                if pretrained is None:
                    pretrained = pretrain(experiment, first.split)
                if isinstance(pretrained, PretrainResult):
                    network = pretrained.network
                else:
                    network = pretrained
                # R[0, 0] under the same deployment semantics as every
                # later row: the pretrain-time test accuracy (full
                # pretrain timesteps, static threshold) would fold the
                # systematic timestep-reduction gap into the base
                # task's forgetting/BWT.
                pretrain_mask = first_masks[0]
                pretrain_accuracy = _task_accuracy(
                    network,
                    first.split.pretrain_test,
                    probe.ncl_timesteps(),
                    probe,
                    mask=pretrain_mask,
                )
            federation = None
            if replay is not None and replay.store_backed:
                federation = FederatedReplayStore.create(
                    Path(replay.store_dir),
                    budget_bytes=replay.federation_budget_bytes,
                    overwrite=replay.overwrite,
                )
            if store is not None:
                # Commit session 0 so a kill during the first step never
                # pays for pre-training twice.
                store.save(
                    fingerprint=fingerprint,
                    scenario=scenario.name,
                    method=method_name,
                    steps_completed=0,
                    pretrain_accuracy=pretrain_accuracy,
                    step_names=[],
                    rows=[],
                    results=[],
                    network=network,
                    federation=_federation_payload(federation),
                )

        # ---- sessions 1..S: one NCL run per step, then evaluate all
        # tasks seen so far
        task_tests: list[SpikeDataset] = [first.split.pretrain_test]
        results: list[NCLResult] = []
        step_names: list[str] = []
        rows: list[list[float]] = []

        final_task_classes: tuple[tuple[int, ...], ...] | None = None
        step = first
        reentry = False
        if state is not None:
            # Fast-forward the lazy stream past the committed steps:
            # splits are rebuilt (deterministically) only as far as the
            # evaluation sets the remaining steps will score against.
            results = list(state.results)
            step_names = list(state.step_names)
            rows = [list(row) for row in state.rows]
            if results:
                results[-1].network = network
            for k in range(state.steps_completed):
                if step is None:
                    raise DataError(
                        f"checkpoint records {state.steps_completed} completed "
                        f"steps but the scenario yielded only {k}"
                    )
                if step.name != state.step_names[k]:
                    raise DataError(
                        f"checkpoint step {k} was {state.step_names[k]!r} but "
                        f"the scenario now yields {step.name!r} — the stream "
                        "changed under the checkpoint"
                    )
                task_tests.append(step.split.new_test)
                final_task_classes = step.task_classes
                step = next(step_iter, None)
            # The step being re-run may have left a partial member store
            # behind (killed after the member was written, before its
            # commit); the re-run must be free to overwrite it.
            reentry = federation is not None
        while step is not None:
            if max_steps is not None and len(results) >= max_steps:
                break
            with obs.span(
                "scenario.step", category="scenario", index=step.index, step=step.name
            ):
                ncl_method = method_factory(experiment)
                if federation is None:
                    result = ncl_method.run(network, step.split)
                else:
                    step_replay = replay
                    if reentry:
                        step_replay = dataclasses.replace(replay, overwrite=True)
                        reentry = False
                    member = f"step-{step.index:03d}"
                    result = ncl_method.run(
                        network, step.split, replay=step_replay.member(member)
                    )
                    if result.replay_store_path is not None:
                        federation.adopt(member)
                        federation.rebalance()
                if result.network is None:
                    raise DataError("method did not return its trained network")
                network = result.network
                results.append(result)
                step_names.append(step.name)

                task_tests.append(step.split.new_test)
                masks = _step_masks(step, len(task_tests), num_classes, task_aware)
                final_task_classes = step.task_classes
                timesteps = ncl_method.ncl_timesteps()
                with obs.span(
                    "scenario.eval", category="scenario", tasks=len(task_tests)
                ):
                    rows.append(
                        [
                            _task_accuracy(
                                network, dataset, timesteps, ncl_method, mask=mask
                            )
                            for dataset, mask in zip(task_tests, masks)
                        ]
                    )
                if store is not None:
                    with obs.span(
                        "scenario.checkpoint", category="scenario", index=step.index
                    ):
                        store.save(
                            fingerprint=fingerprint,
                            scenario=scenario.name,
                            method=method_name,
                            steps_completed=len(results),
                            pretrain_accuracy=pretrain_accuracy,
                            step_names=step_names,
                            rows=rows,
                            results=results,
                            network=network,
                            federation=_federation_payload(federation),
                        )
            if on_step is not None:
                on_step(step.index, result)
            if max_steps is not None and len(results) >= max_steps:
                # Stop before advancing: the next step's split would be
                # materialized only to be discarded.
                break
            step = next(step_iter, None)

        sessions = len(results) + 1
        matrix = np.full((sessions, sessions), np.nan)
        matrix[0, 0] = pretrain_accuracy
        for i, row in enumerate(rows, start=1):
            matrix[i, : len(row)] = row

    trace = obs.TraceReport.capture(recorder, trace_mark)
    obs.maybe_export()
    return ScenarioResult(
        scenario=scenario.name,
        method=method_name,
        steps=tuple(results),
        step_names=tuple(step_names),
        accuracy_matrix=matrix,
        pretrain_accuracy=pretrain_accuracy,
        store_root=str(replay.store_dir) if federation is not None else None,
        task_classes=final_task_classes,
        trace=trace,
    )
