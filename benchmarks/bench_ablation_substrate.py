"""Ablation of the substrate's replay format: raw-input rehearsal vs
latent replay — the memory argument for replaying activations instead of
inputs.
"""

from repro.core import RawInputReplay, Replay4NCL
from repro.eval import experiments
from repro.eval.results import ExperimentResult, Series


def test_raw_vs_latent_replay_memory(benchmark, bench_scale, record_result):
    ctx = experiments.context(bench_scale)
    exp = ctx.preset.experiment

    def run_pair():
        raw = RawInputReplay(exp).run(ctx.pretrained.network, ctx.split)
        latent = Replay4NCL(exp).run(ctx.pretrained.network, ctx.split)
        return raw, latent

    raw, latent = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    result = ExperimentResult(
        experiment_id="ablation_raw_vs_latent",
        title="Ablation: raw-input rehearsal vs latent replay",
        scale=ctx.preset.name,
    )
    result.add_series(Series(
        name="latent-bytes", x=("raw-input", "replay4ncl"),
        y=(float(raw.latent_storage_bytes), float(latent.latent_storage_bytes)),
        x_label="method", y_label="bytes",
    ))
    result.add_series(Series(
        name="old-acc", x=("raw-input", "replay4ncl"),
        y=(raw.final_old_accuracy, latent.final_old_accuracy),
        x_label="method", y_label="top1",
    ))
    record_result(result)

    # Latent replay's storage must be a small fraction of raw rehearsal.
    assert latent.latent_storage_bytes < raw.latent_storage_bytes / 2
