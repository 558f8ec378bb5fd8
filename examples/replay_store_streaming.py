"""The replay-memory engine end to end: budget, stream, replay from disk.

Three acts:

1. **Budgeted federation** — latent task arrivals land as member stores
   of a federation whose global byte budget class-balanced eviction
   enforces after every arrival, at two budgets.
2. **Accounting** — the federation's one stats report sets the Fig. 12
   latent-memory model beside the actual codec payload and disk bytes.
3. **Store-backed NCL** — a full Replay4NCL run with the replay buffer
   resident on disk, verified bit-for-bit against the in-memory path.

Run:  python examples/replay_store_streaming.py
(exits 1 when the store-backed run is not bitwise-identical).
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import Replay4NCL, ReplaySpec, pretrain
from repro.data import SyntheticSHD, make_class_incremental
from repro.eval.scale import get_scale
from repro.replaystore import FederatedReplayStore, ReplayStore


def streaming_budget_demo(workdir: Path) -> None:
    """Stream 600 skewed task arrivals into 6 and 12 KiB federation budgets."""
    frames, channels = 40, 48
    print(f"streaming 600 arrivals of [{frames} x {channels}] latent rasters")
    print("class skew 10:3:1, class-balanced eviction\n")
    print(f"{'budget':16s} {'kept':>5s} {'evicted':>8s}  class counts")
    for kib in (6, 12):
        federation = FederatedReplayStore.create(
            workdir / f"stream-{kib}k", budget_bytes=kib * 1024
        )
        arrival_rng = np.random.default_rng(1)
        evicted = 0
        for chunk in range(20):  # 20 arrivals x 30 samples
            raster = (arrival_rng.random((frames, 30, channels)) < 0.1).astype(
                np.float32
            )
            labels = arrival_rng.choice([0, 1, 2], size=30, p=[10 / 14, 3 / 14, 1 / 14])
            member = f"arrival-{chunk:02d}"
            ReplayStore.create(
                federation.root / member,
                stored_frames=frames,
                num_channels=channels,
                generated_timesteps=frames,
                shard_samples=16,
            ).append(raster, labels)
            federation.adopt(member)
            evicted += federation.rebalance()
        stats = federation.stats()
        print(f"{f'{kib} KiB':16s} {stats.num_samples:5d} {evicted:8d}  {stats.class_counts}")
    print()


def accounting_demo(workdir: Path) -> None:
    """Model, payload and disk bytes of one budgeted federation."""
    stats = FederatedReplayStore.open(workdir / "stream-12k").stats()
    print("latent-memory accounting (12 KiB federation):")
    print(f"  analytic model: {stats.modelled_bytes} B (bitmap + headers, "
          f"{stats.budget_utilization:.0%} of budget)")
    print(f"  codec payload:  {stats.payload_bytes} B "
          f"(saving {stats.payload_saving:.1%})")
    print(f"  on disk:        {stats.disk_bytes} B "
          f"(format overhead {stats.format_overhead_bytes} B)\n")


def store_backed_ncl(workdir: Path) -> bool:
    """Full NCL run with replay resident on disk; True on exact parity."""
    preset = get_scale("ci")
    experiment = preset.experiment
    generator = SyntheticSHD(preset.shd, seed=experiment.seed)
    split = make_class_incremental(
        generator,
        experiment.samples_per_class,
        experiment.test_samples_per_class,
        num_pretrain_classes=experiment.num_pretrain_classes,
    )
    pretrained = pretrain(experiment, split)

    in_memory = Replay4NCL(experiment).run(pretrained.network, split)
    store_backed = Replay4NCL(experiment).run(
        pretrained.network,
        split,
        replay=ReplaySpec(store_dir=workdir / "ncl-store", shard_samples=4),
    )
    print("store-backed Replay4NCL (ci scale):")
    print(f"  in-memory:    {in_memory.summary()}")
    print(f"  store-backed: {store_backed.summary()}")
    identical = (
        in_memory.final_overall_accuracy == store_backed.final_overall_accuracy
        and [r.loss for r in in_memory.history]
        == [r.loss for r in store_backed.history]
    )
    print(f"  bitwise-identical trajectory via read-once ReplayStream: {identical}")
    print(f"  store at {store_backed.replay_store_path}")
    return identical


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        streaming_budget_demo(workdir)
        accounting_demo(workdir)
        identical = store_backed_ncl(workdir)
    raise SystemExit(0 if identical else 1)
