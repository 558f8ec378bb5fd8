"""Ablation: the adaptive threshold policy (§III-B / Alg. 1) on vs off.

Isolates the contribution of the per-neuron adaptive ``Vthr`` at the
paper's reduced timestep and at a more aggressive one.  The paper argues
adaptation compensates the information loss of fewer spikes; the effect
concentrates at aggressive timesteps, where silence is common.
"""

import pytest

from repro.core import Replay4NCL
from repro.eval import experiments
from repro.eval.results import ExperimentResult, Series


def test_adaptive_threshold_ablation(benchmark, bench_scale, record_result):
    ctx = experiments.context(bench_scale)
    exp = ctx.preset.experiment
    t_star = exp.ncl.timesteps
    t_aggr = max(t_star // 2, 2)

    def run_grid():
        rows = {}
        for timesteps in (t_star, t_aggr):
            for adaptive in (True, False):
                method = Replay4NCL(exp, timesteps=timesteps, adaptive_threshold=adaptive)
                rows[(timesteps, adaptive)] = method.run(
                    ctx.pretrained.network, ctx.split
                )
        return rows

    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    result = ExperimentResult(
        experiment_id="ablation_threshold",
        title="Ablation: adaptive threshold on/off at two timesteps",
        scale=ctx.preset.name,
    )
    labels = tuple(f"T{t}-{'adapt' if a else 'static'}" for (t, a) in rows)
    result.add_series(Series(
        name="old-acc", x=labels,
        y=tuple(r.final_old_accuracy for r in rows.values()),
        x_label="config", y_label="top1",
    ))
    result.add_series(Series(
        name="new-acc", x=labels,
        y=tuple(r.final_new_accuracy for r in rows.values()),
        x_label="config", y_label="top1",
    ))
    record_result(result)

    # Both variants must preserve old knowledge at the paper's T*.
    assert rows[(t_star, True)].final_old_accuracy > 0.5
    assert rows[(t_star, False)].final_old_accuracy > 0.5


def test_threshold_policy_lowers_barrier_when_silent():
    """Unit-style sanity: the Alg. 1 decay kicks in for silent neurons."""
    from repro.snn.threshold import PerNeuronAdaptiveThreshold
    import numpy as np

    ctrl = PerNeuronAdaptiveThreshold(num_neurons=4, timesteps=40, adjust_interval=1)
    counts = np.array([5.0, 0.0, 0.0, 1.0])
    value = ctrl.step(3, counts, counts * 3)
    assert value[1] == pytest.approx(1.0 / (1.0 + np.exp(-0.001 * 3)))
    assert value[0] > value[1]  # active neuron follows the timing rule
