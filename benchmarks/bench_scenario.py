"""Extension bench: the scenario-first run API (beyond the paper).

Runs the named built-in scenarios beyond the paper's single step —
``domain-incremental`` (fixed classes, drifting input statistics),
``blurry`` (overlapping class boundaries, store-backed replay), and the
task-IL/class-IL regime pair (``task-incremental`` vs ``sequential`` on
the same seed) — end-to-end through ``run_scenario`` and records their
continual-learning metrics.  Runs at ci scale regardless of
REPRO_BENCH_SCALE (each is a full pre-train plus a 2-step NCL stream).
"""

import numpy as np

from repro.eval.results import ExperimentResult, Series
from repro.scenario import run_scenario


def _record_scenario(record_result, result, experiment_id, title):
    report = ExperimentResult(experiment_id=experiment_id, title=title, scale="ci")
    steps = tuple(range(len(result.steps)))
    report.add_series(Series(
        name="old-acc", x=steps, y=result.old_accuracy_trajectory,
        x_label="step", y_label="top1",
    ))
    report.add_series(Series(
        name="new-acc", x=steps, y=result.new_accuracy_trajectory,
        x_label="step", y_label="top1",
    ))
    report.scalars["average_accuracy"] = result.average_accuracy
    report.scalars["forgetting"] = result.forgetting
    report.scalars["backward_transfer"] = result.backward_transfer
    record_result(report)


def test_scenario_domain_incremental(benchmark, record_result):
    result = benchmark.pedantic(
        lambda: run_scenario("domain-incremental", "replay4ncl", scale="ci"),
        rounds=1,
        iterations=1,
    )
    _record_scenario(
        record_result, result, "ext_scenario_domain",
        "Extension: domain-incremental scenario (Replay4NCL)",
    )
    # The matrix is lower-triangular complete and the metrics coherent.
    assert result.accuracy_matrix.shape == (3, 3)
    assert np.isfinite(result.average_accuracy)
    # Replay must keep the clean domain alive while the drifted domains
    # are absorbed (margin wide: ci-scale accuracy quantum is 0.05).
    assert result.old_accuracy_trajectory[-1] > 0.4


def test_scenario_blurry_store_backed(benchmark, record_result, tmp_path):
    from repro.core import ReplaySpec

    result = benchmark.pedantic(
        lambda: run_scenario(
            "blurry", "replay4ncl", scale="ci",
            replay=ReplaySpec(store_dir=tmp_path / "fed", shard_samples=8),
        ),
        rounds=1,
        iterations=1,
    )
    _record_scenario(
        record_result, result, "ext_scenario_blurry",
        "Extension: blurry scenario, store-backed replay (Replay4NCL)",
    )
    assert result.store_root is not None
    assert result.old_accuracy_trajectory[-1] > 0.3


def test_scenario_task_vs_class_incremental(benchmark, record_result):
    """The regime pair: same stream, task-IL (masked) vs class-IL eval.

    Training is bitwise-identical between the two runs (task ids are an
    evaluation device only), so the whole accuracy-matrix gap is the
    value of knowing the task id at inference.
    """

    def pair():
        task_il = run_scenario("task-incremental", "replay4ncl", scale="ci")
        class_il = run_scenario("sequential", "replay4ncl", scale="ci")
        return task_il, class_il

    task_il, class_il = benchmark.pedantic(pair, rounds=1, iterations=1)
    _record_scenario(
        record_result, task_il, "ext_scenario_task_il",
        "Extension: task-incremental scenario (per-task readout masks)",
    )
    report = ExperimentResult(
        experiment_id="ext_scenario_task_vs_class",
        title="Extension: task-IL vs class-IL on the same class stream",
        scale="ci",
    )
    report.scalars["task_il_average_accuracy"] = task_il.average_accuracy
    report.scalars["class_il_average_accuracy"] = class_il.average_accuracy
    report.scalars["task_id_advantage"] = (
        task_il.average_accuracy - class_il.average_accuracy
    )
    report.scalars["task_il_forgetting"] = task_il.forgetting
    report.scalars["class_il_forgetting"] = class_il.forgetting
    record_result(report)

    assert task_il.task_incremental and not class_il.task_incremental
    # Masking can only recover argmax errors, never create them: the
    # task-IL matrix dominates class-IL entry-wise at the same seed.
    lower = np.tril_indices(task_il.accuracy_matrix.shape[0])
    assert np.all(
        task_il.accuracy_matrix[lower] >= class_il.accuracy_matrix[lower]
    )
    assert task_il.average_accuracy >= class_il.average_accuracy
