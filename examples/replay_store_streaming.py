"""The replay-memory engine end to end: budget, stream, replay from disk.

Three acts:

1. **Streaming build** — latent task arrivals flow through a hard byte
   budget under each eviction policy (FIFO / reservoir / class-balanced)
   and land in a sharded on-disk store.
2. **Accounting** — the Fig. 12 latent-memory model is cross-checked
   against the actual shard bytes the store wrote.
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
from repro.hw.memory import audit_store
from repro.replaystore import StreamingStoreBuilder, get_policy


def streaming_budget_demo(workdir: Path) -> None:
    """Stream 600 skewed task arrivals through a 12 KiB budget."""
    frames, channels = 40, 48
    print(f"streaming 600 arrivals of [{frames} x {channels}] latent rasters")
    print("class skew 10:3:1, budget 12 KiB\n")
    print(f"{'policy':16s} {'kept':>5s} {'evicted':>8s} {'rejected':>9s}  class counts")
    for name in ("fifo", "reservoir", "class-balanced"):
        builder = StreamingStoreBuilder(
            12 * 1024,
            get_policy(name),
            stored_frames=frames,
            num_channels=channels,
            generated_timesteps=frames,
            rng=np.random.default_rng(7),
        )
        arrival_rng = np.random.default_rng(1)
        for _ in range(20):  # 20 chunks x 30 samples
            raster = (arrival_rng.random((frames, 30, channels)) < 0.1).astype(
                np.float32
            )
            labels = arrival_rng.choice([0, 1, 2], size=30, p=[10 / 14, 3 / 14, 1 / 14])
            builder.offer(raster, labels)
        store = builder.finalize(workdir / f"stream-{name}", shard_samples=16)
        counts = store.stats().class_counts
        print(
            f"{name:16s} {store.num_samples:5d} {builder.evicted:8d} "
            f"{builder.rejected:9d}  {counts}"
        )
    print()


def accounting_demo(workdir: Path) -> None:
    """Model-vs-disk audit of one of the streamed stores."""
    from repro.replaystore import ReplayStore

    store = ReplayStore.open(workdir / "stream-class-balanced")
    audit = audit_store(store)
    print("latent-memory accounting (class-balanced store):")
    print(f"  analytic model: {audit.modelled_bytes} B (bitmap + headers)")
    print(f"  codec payload:  {audit.payload_bytes} B "
          f"(saving {audit.payload_saving:.1%})")
    print(f"  on disk:        {audit.disk_bytes} B "
          f"(format overhead {audit.format_overhead_bytes} B)\n")


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
