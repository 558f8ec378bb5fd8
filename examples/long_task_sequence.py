"""A long task stream on a memory budget: federated replay stores.

The scenario the federation exists for: an embedded agent keeps meeting
new classes, and the replay archive must stay bounded no matter how
long the stream runs.  Two acts:

1. **Store-federated sequential NCL** — a 3-step class-incremental
   stream where every step persists its latent replay into a member
   store of one `FederatedReplayStore`, reads that member back once and
   trains on it; each step's resident replay (its own member's decoded
   raster) is compared against the dense bytes of the whole archive so
   far.
2. **Global budget** — the same stream under a hard byte budget across
   *all* steps' stores: after each step the federation rebalances,
   evicting across members class-balancedly, and the archive never
   exceeds the budget.  The budget caps the archive, never the replay
   set a step trains on, so the trajectory is unchanged.

Run:  python examples/long_task_sequence.py
(exits 1 when the budget changes the trajectory).
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import Replay4NCL, ReplaySpec
from repro.core.pipeline import pretrain
from repro.data import SyntheticSHD, make_class_incremental
from repro.eval.scale import get_scale
from repro.replaystore import FederatedReplayStore
from repro.scenario import SequentialScenario, run_scenario

STREAM = SequentialScenario(steps_count=3, base_classes=2)


def build_scenario():
    preset = get_scale("ci")
    generator = SyntheticSHD(preset.shd, seed=preset.experiment.seed)
    exp = preset.experiment.replace(num_pretrain_classes=2)
    base_split = make_class_incremental(
        generator,
        exp.samples_per_class,
        exp.test_samples_per_class,
        num_pretrain_classes=2,
    )
    print("pre-training the base network (2 classes)...")
    pretrained = pretrain(exp, base_split)
    return exp, generator, pretrained


def run_stream(exp, generator, pretrained, replay: ReplaySpec):
    return run_scenario(
        STREAM,
        Replay4NCL,
        generator=generator,
        experiment=exp,
        pretrained=pretrained,
        replay=replay,
    )


def federated_run(exp, generator, pretrained, workdir: Path):
    print("\n=== act 1: store-federated 3-step stream ===")
    result = run_stream(
        exp,
        generator,
        pretrained,
        ReplaySpec(store_dir=workdir / "federation", shard_samples=4),
    )
    print(result.describe())
    federation = FederatedReplayStore.open(result.store_root)
    print(f"\nfederation: {federation!r}")
    archive_bytes = 0
    for k, step in enumerate(result.steps):
        member = federation.member(f"step-{k:03d}")
        archive_bytes += (
            4 * member.meta.stored_frames * member.num_samples
            * member.meta.num_channels
        )
        print(
            f"  step {k}: replay classes {sorted(set(member.labels.tolist()))}, "
            f"resident {step.replay_peak_resident_bytes} B "
            f"vs {archive_bytes} B for the whole archive densified "
            f"({step.replay_peak_resident_bytes / archive_bytes:.0%})"
        )
    stats = federation.stats()
    print(
        f"archive: {stats.num_samples} samples in {stats.num_members} members, "
        f"{stats.disk_bytes} B on disk (model {stats.modelled_bytes} B)"
    )
    return result


def budgeted_run(exp, generator, pretrained, workdir: Path, reference) -> bool:
    print("\n=== act 2: the same stream under a global byte budget ===")
    budget = FederatedReplayStore.open(reference.store_root).bytes_for(12)
    print(f"budget: {budget} B (12 samples across the whole stream)")
    result = run_stream(
        exp,
        generator,
        pretrained,
        ReplaySpec(
            store_dir=workdir / "budgeted",
            shard_samples=4,
            federation_budget_bytes=budget,
        ),
    )
    federation = FederatedReplayStore.open(result.store_root)
    stats = federation.stats()
    print(
        f"archive after 3 steps: {stats.num_samples} samples, "
        f"{stats.modelled_bytes} / {budget} B "
        f"({stats.budget_utilization:.0%} of budget)"
    )
    survivors = {name: row.num_samples for name, row in stats.members.items()}
    print(f"per-member survivors: {survivors}")
    print(f"class counts stay balanced: {stats.class_counts}")
    identical = all(
        np.array_equal(p.data, q.data)
        for a, b in zip(reference.steps, result.steps)
        for p, q in zip(a.network.parameters(), b.network.parameters())
    )
    print(f"trajectory unchanged by archival budget: {identical}")
    return identical


def main() -> None:
    exp, generator, pretrained = build_scenario()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        reference = federated_run(exp, generator, pretrained, workdir)
        identical = budgeted_run(exp, generator, pretrained, workdir, reference)
    raise SystemExit(0 if identical else 1)


if __name__ == "__main__":
    main()
