"""Sequential (multi-step) class-incremental learning.

The paper evaluates one continual step (19 classes -> +1).  Deployed
agents face a *stream* of new classes; this module chains NCL steps:

- step k learns new-class set k starting from the network trained at
  step k-1;
- the replay pool for step k covers **all classes seen so far** —
  including classes learned continually in earlier steps, whose latent
  data is regenerated from their training recordings through the frozen
  front (the frozen layers never change, so regeneration is exact).

This is the natural extension of Alg. 1 and the stress test for the
paper's parameter adjustments: forgetting can now compound across steps.

Long sequences should not keep every step's replay in memory: pass
``replay=ReplaySpec(store_dir=...)`` to persist every step's latent
data as a member of a
:class:`~repro.replaystore.federation.FederatedReplayStore`.  Each step
reads its own member back once, decoding every shard once, and trains
on that raster exactly as the dense path would; only the current step's
replay set is ever resident.  An optional global byte budget caps the
archive: after a step trains, cross-member eviction brings the
federation back under budget, so the budget never shrinks the replay
set the current step trains on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.replayspec import ReplaySpec, resolve_replay_spec
from repro.core.strategies import NCLMethod, NCLResult
from repro.data.synthetic_shd import SyntheticSHD
from repro.data.tasks import ClassIncrementalSplit
from repro.errors import DataError
from repro.snn.network import SpikingNetwork

__all__ = [
    "SequentialResult",
    "iter_sequential_splits",
    "make_sequential_splits",
    "run_sequential",
]


def create_federation(replay: "ReplaySpec | None"):
    """Open the per-step store federation of a store-backed spec.

    Returns ``None`` for dense specs.  Shared by :func:`run_sequential`
    and :func:`repro.scenario.run_scenario`, so both entry points build
    byte-for-byte identical federations from the same ``ReplaySpec``.
    """
    if replay is None or not replay.store_backed:
        return None
    from repro.replaystore.federation import FederatedReplayStore

    return FederatedReplayStore.create(
        Path(replay.store_dir),
        budget_bytes=replay.federation_budget_bytes,
        policy=replay.federation_policy,
        seed=replay.federation_seed,
        overwrite=replay.overwrite,
    )


def run_chained_step(
    method: NCLMethod,
    network,
    split: ClassIncrementalSplit,
    *,
    index: int,
    replay: "ReplaySpec | None",
    federation,
) -> NCLResult:
    """Run one step of a chained scenario and validate its result.

    The single authority for per-step federation plumbing: member
    ``step-<index>`` is written under the federation root, adopted, and
    the federation rebalanced *after* the step trained (the budget caps
    the archive, never the current step's replay set).  Used by both
    :func:`run_sequential` and :func:`repro.scenario.run_scenario` so
    their trajectories cannot drift apart.
    """
    if federation is not None:
        member = f"step-{index:03d}"
        result = method.run(network, split, replay=replay.member(member))
        if result.replay_store_path is not None:
            federation.adopt(member)
            federation.rebalance()
    else:
        result = method.run(network, split)
    if result.network is None:
        raise DataError("method did not return its trained network")
    return result


@dataclass(frozen=True)
class SequentialResult:
    """Outcome of a multi-step scenario."""

    steps: tuple[NCLResult, ...]
    #: Root of the per-step replay-store federation when the run was
    #: store-backed (``store_root``); None for dense in-memory runs.
    store_root: str | None = None

    @property
    def final_network(self) -> SpikingNetwork:
        """Network state after the last step (raises when not retained)."""
        network = self.steps[-1].network
        if network is None:
            raise DataError("final step carries no network")
        return network

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
        lines = [f"sequential scenario: {len(self.steps)} steps"]
        for i, step in enumerate(self.steps):
            lines.append(
                f"  step {i}: old={step.final_old_accuracy:.3f} "
                f"new={step.final_new_accuracy:.3f} "
                f"overall={step.final_overall_accuracy:.3f}"
            )
        return "\n".join(lines)


def iter_sequential_splits(
    generator: SyntheticSHD,
    samples_per_class: int,
    test_samples_per_class: int,
    base_classes: int,
    steps: int,
    classes_per_step: int = 1,
):
    """Lazily yield one :class:`ClassIncrementalSplit` per continual step.

    Step k's "old" pool holds the base classes plus everything learned
    in steps ``< k`` (so replay regeneration covers all seen classes);
    its "new" set holds the next ``classes_per_step`` class ids.

    Step k's datasets materialise only when the iterator reaches it
    (:meth:`~repro.data.synthetic_shd.SyntheticSHD.generate_dataset`
    derives every sample from ``(seed, class, sample)`` alone, so lazy
    and eager construction are bitwise-identical).  The generator's
    memo keeps every recording it has drawn, so step k re-uses the
    seen classes' recordings instead of re-synthesizing them; what it
    holds is bounded by the ``(class, sample)`` pool of the final step,
    whose split references all of it anyway.  Parameters are validated
    eagerly, at call time.
    """
    num_classes = generator.config.num_classes
    needed = base_classes + steps * classes_per_step
    if base_classes <= 0 or steps <= 0 or classes_per_step <= 0:
        raise DataError("base_classes, steps and classes_per_step must be positive")
    if needed > num_classes:
        raise DataError(
            f"scenario needs {needed} classes but the generator has {num_classes}"
        )

    def generate():
        for k in range(steps):
            seen = list(range(base_classes + k * classes_per_step))
            new = list(
                range(
                    base_classes + k * classes_per_step,
                    base_classes + (k + 1) * classes_per_step,
                )
            )
            yield ClassIncrementalSplit(
                pretrain_train=generator.generate_dataset(
                    samples_per_class, split="train", classes=seen
                ),
                pretrain_test=generator.generate_dataset(
                    test_samples_per_class, split="test", classes=seen
                ),
                new_train=generator.generate_dataset(
                    samples_per_class, split="train", classes=new
                ),
                new_test=generator.generate_dataset(
                    test_samples_per_class, split="test", classes=new
                ),
                old_classes=tuple(seen),
                new_classes=tuple(new),
            )

    return generate()


def make_sequential_splits(
    generator: SyntheticSHD,
    samples_per_class: int,
    test_samples_per_class: int,
    base_classes: int,
    steps: int,
    classes_per_step: int = 1,
) -> list[ClassIncrementalSplit]:
    """Eager list form of :func:`iter_sequential_splits` (same splits)."""
    return list(
        iter_sequential_splits(
            generator,
            samples_per_class,
            test_samples_per_class,
            base_classes=base_classes,
            steps=steps,
            classes_per_step=classes_per_step,
        )
    )


def run_sequential(
    method_factory,
    pretrained,
    splits: list[ClassIncrementalSplit],
    *,
    replay: ReplaySpec | None = None,
) -> SequentialResult:
    """Chain NCL steps: each starts from the previous step's network.

    ``method_factory`` is called once per step (``factory(step_index)``)
    so policies may vary along the stream; return a fresh
    :class:`NCLMethod` each time.  ``pretrained`` is the starting
    network — a :class:`SpikingNetwork` or a
    :class:`~repro.core.pipeline.PretrainResult` (unwrapped like
    :func:`~repro.core.pipeline.run_method` does).

    ``replay`` is a :class:`~repro.core.replayspec.ReplaySpec` (or a
    bare federation root path).  With ``store_dir`` set, step k persists
    its latent replay data as member store ``store_dir/step-<k>`` of a
    :class:`~repro.replaystore.federation.FederatedReplayStore` instead
    of holding every step's buffer in memory; the step reads that member
    back once (each shard decoded once) and trains on it, so only the
    current step's replay set is resident however long the task stream
    runs, and training trajectories stay bitwise-identical to the dense
    path at the same seed.  ``spec.overwrite`` replaces an existing federation (the
    re-run switch); ``spec.federation_budget_bytes`` caps the persistent
    archive across *all* steps' stores together — after each step the
    federation rebalances through ``spec.federation_policy`` (seeded by
    ``spec.federation_seed``) and losers are evicted across member
    stores.  The just-trained step is rebalanced *after* its training
    finished, so the budget never perturbs the current step's replay
    set.
    """
    if not splits:
        raise DataError("need at least one split")
    replay = resolve_replay_spec(replay)
    if replay is None:
        replay = ReplaySpec()
    from repro.core.pipeline import PretrainResult

    if isinstance(pretrained, PretrainResult):
        pretrained = pretrained.network
    federation = create_federation(replay)
    network = pretrained
    results = []
    for k, split in enumerate(splits):
        method: NCLMethod = method_factory(k)
        result = run_chained_step(
            method, network, split, index=k, replay=replay, federation=federation
        )
        results.append(result)
        network = result.network
    return SequentialResult(
        steps=tuple(results),
        store_root=str(replay.store_dir) if federation is not None else None,
    )
