"""Demonstrate the Fig. 7 spike-train codec and its alternatives.

Reproduces the paper's worked compression/decompression example
bit-for-bit, then compares the three codecs on real latent activations
from a pre-trained network.

Run:  python examples/codec_roundtrip.py
"""

import numpy as np

from repro.compression import TemporalSubsampleCodec, compare_codecs
from repro.core.latent_replay import LatentReplayBuffer
from repro.core.pipeline import pretrain
from repro.data import SyntheticSHD, make_class_incremental
from repro.eval.scale import get_scale


def paper_worked_example() -> None:
    """The exact bitstream from paper Fig. 7."""
    original = np.array(
        [1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0], dtype=np.float32
    )[:, None]
    codec = TemporalSubsampleCodec(2)
    compressed = codec.compress(original)
    restored = codec.decompress(compressed, 14)

    def bits(raster):
        return " ".join(str(int(v)) for v in raster[:, 0])

    print("paper Fig. 7 worked example (factor 2):")
    print(f"  original:     {bits(original)}")
    print(f"  compressed:   {bits(compressed)}")
    print(f"  decompressed: {bits(restored)}")
    print(f"  spikes kept:  {int(restored.sum())}/{int(original.sum())}\n")


def latent_data_comparison() -> None:
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
    buffer, _ = LatentReplayBuffer.generate(
        pretrained.network,
        split.pretrain_train.sample_fraction(0.3, np.random.default_rng(0)),
        insertion_layer=experiment.ncl.insertion_layer,
        timesteps=experiment.pretrain.timesteps,
        compression_factor=1,
    )
    print(
        f"latent activations: {buffer.compressed.shape} "
        f"({buffer.compressed.mean():.3f} spike density)"
    )
    print(f"{'codec':48s} {'bytes':>8s} {'ratio':>6s} {'spikes kept':>12s}")
    for stats in compare_codecs(buffer.compressed, subsample_factor=2):
        print(
            f"{stats.codec:48s} {stats.stored_bytes:8d} "
            f"{stats.compression_ratio:6.2f} {stats.spike_retention:12.1%}"
        )


if __name__ == "__main__":
    paper_worked_example()
    latent_data_comparison()
