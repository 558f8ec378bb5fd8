"""Ablation: replay-subset size (the TS_replay ⊆ TS_pre budget).

Sweeps the fraction of the pre-training set stored as latent replay
data.  Old-task retention should grow with the budget, while the latent
memory bill grows linearly — the trade embedded deployments must pick.
"""

from repro.core import Replay4NCL
from repro.eval import experiments
from repro.eval.results import ExperimentResult, Series


def test_replay_budget_sweep(benchmark, bench_scale, record_result):
    ctx = experiments.context(bench_scale)
    exp = ctx.preset.experiment
    fractions = (0.1, 0.25, 0.5, 1.0)

    def run_sweep():
        rows = {}
        for fraction in fractions:
            config = exp.replace(ncl=exp.ncl.replace(replay_fraction=fraction))
            rows[fraction] = Replay4NCL(config).run(ctx.pretrained.network, ctx.split)
        return rows

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    result = ExperimentResult(
        experiment_id="ablation_replay_budget",
        title="Ablation: replay subset fraction",
        scale=ctx.preset.name,
    )
    result.add_series(Series(
        name="old-acc", x=fractions,
        y=tuple(rows[f].final_old_accuracy for f in fractions),
        x_label="replay fraction", y_label="top1",
    ))
    result.add_series(Series(
        name="latent-bytes", x=fractions,
        y=tuple(float(rows[f].latent_storage_bytes) for f in fractions),
        x_label="replay fraction", y_label="bytes",
    ))
    record_result(result)

    # Memory grows monotonically with the budget.
    byte_counts = [rows[f].latent_storage_bytes for f in fractions]
    assert all(a <= b for a, b in zip(byte_counts, byte_counts[1:]))
    # A bigger budget never hurts retention by much.
    assert rows[1.0].final_old_accuracy >= rows[0.1].final_old_accuracy - 0.1
