"""Ablation: spike-codec choice for latent replay storage.

Compares the Fig. 7 subsampling codec against the lossless bitpack and
address-event codecs on real latent activations: storage bytes and spike
retention.  Shows where the paper's lossy choice pays and what a
lossless buffer would cost.
"""

import numpy as np

from repro.compression import compare_codecs
from repro.core.latent_replay import LatentReplayBuffer
from repro.eval import experiments
from repro.eval.results import ExperimentResult, Series


def test_codec_comparison_on_latent_data(benchmark, bench_scale, record_result):
    ctx = experiments.context(bench_scale)
    exp = ctx.preset.experiment
    replay = ctx.split.pretrain_train.sample_fraction(
        exp.ncl.replay_fraction, np.random.default_rng(exp.seed)
    )
    buffer, _ = LatentReplayBuffer.generate(
        ctx.pretrained.network,
        replay,
        insertion_layer=exp.ncl.insertion_layer,
        timesteps=exp.pretrain.timesteps,
        compression_factor=1,
    )

    stats = benchmark.pedantic(
        lambda: compare_codecs(buffer.compressed, subsample_factor=2),
        rounds=1,
        iterations=1,
    )

    result = ExperimentResult(
        experiment_id="ablation_codec",
        title="Ablation: codec choice on latent activations",
        scale=ctx.preset.name,
    )
    names = tuple(s.codec for s in stats)
    result.add_series(Series(
        name="stored-bytes", x=names, y=tuple(float(s.stored_bytes) for s in stats),
        x_label="codec", y_label="bytes",
    ))
    result.add_series(Series(
        name="spike-retention", x=names, y=tuple(s.spike_retention for s in stats),
        x_label="codec", y_label="fraction",
    ))
    record_result(result)

    bitpack, aer, subsample = stats
    assert bitpack.spike_retention == 1.0 and aer.spike_retention == 1.0
    assert subsample.spike_retention < 1.0  # the Fig. 7 codec is lossy
    assert subsample.stored_bytes < bitpack.stored_bytes
