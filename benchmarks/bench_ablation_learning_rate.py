"""Ablation: the NCL learning-rate divisor (Alg. 1 line 6: eta_pre/100).

Sweeps eta_cl = eta_pre / {1, 10, 100, 1000} for Replay4NCL.  The paper
argues the /100 setting trades learning speed for stability on fewer
spikes; too high a rate disturbs old knowledge, too low never learns the
new task.
"""

from repro.core import Replay4NCL
from repro.eval import experiments
from repro.eval.results import ExperimentResult, Series


def test_learning_rate_divisor_sweep(benchmark, bench_scale, record_result):
    ctx = experiments.context(bench_scale)
    exp = ctx.preset.experiment
    divisors = (1.0, 10.0, 100.0, 1000.0)

    def run_sweep():
        rows = {}
        for divisor in divisors:
            config = exp.replace(
                ncl=exp.ncl.replace(learning_rate_divisor=divisor)
            )
            rows[divisor] = Replay4NCL(config).run(ctx.pretrained.network, ctx.split)
        return rows

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    result = ExperimentResult(
        experiment_id="ablation_learning_rate",
        title="Ablation: NCL learning-rate divisor",
        scale=ctx.preset.name,
    )
    result.add_series(Series(
        name="old-acc", x=divisors,
        y=tuple(rows[d].final_old_accuracy for d in divisors),
        x_label="eta divisor", y_label="top1",
    ))
    result.add_series(Series(
        name="new-acc", x=divisors,
        y=tuple(rows[d].final_new_accuracy for d in divisors),
        x_label="eta divisor", y_label="top1",
    ))
    record_result(result)

    # The margins are paper-faithful at bench/paper scale; the ci smoke
    # split's accuracy quantum is one test sample (0.0625 old / 0.25
    # new), so widen by that quantum there — the smoke job gates on
    # regressions, not on sampling granularity.
    slack = 0.25 if bench_scale == "ci" else 0.0
    # The aggressive end (divisor 1) must disturb old knowledge at least
    # as much as the paper's conservative /100 setting.
    assert rows[1.0].final_old_accuracy <= (
        rows[100.0].final_old_accuracy + 0.05 + slack
    )
    # The conservative extreme must fail to learn the new task as fast.
    assert rows[1000.0].final_new_accuracy <= (
        rows[1.0].final_new_accuracy + 1e-9 + slack
    )
