"""Extension bench: multi-step continual learning (beyond the paper).

Chains two Replay4NCL steps and verifies forgetting does not compound
catastrophically — the stress test for the paper's parameter
adjustments.  Runs at ci scale regardless of REPRO_BENCH_SCALE (two full
NCL runs plus a dedicated pre-training).
"""

from repro.core import Replay4NCL
from repro.core.pipeline import pretrain
from repro.data.synthetic_shd import SyntheticSHD
from repro.data.tasks import make_class_incremental
from repro.eval.results import ExperimentResult, Series
from repro.eval.scale import get_scale
from repro.scenario import SequentialScenario, run_scenario


def test_sequential_two_steps(benchmark, record_result):
    preset = get_scale("ci")
    experiment = preset.experiment.replace(num_pretrain_classes=3)
    generator = SyntheticSHD(preset.shd, seed=experiment.seed)
    base_split = make_class_incremental(
        generator,
        experiment.samples_per_class,
        experiment.test_samples_per_class,
        num_pretrain_classes=3,
    )
    pretrained = pretrain(experiment, base_split)

    result = benchmark.pedantic(
        lambda: run_scenario(
            SequentialScenario(steps_count=2, base_classes=3),
            Replay4NCL,
            generator=generator,
            experiment=experiment,
            pretrained=pretrained,
        ),
        rounds=1,
        iterations=1,
    )

    report = ExperimentResult(
        experiment_id="ext_sequential",
        title="Extension: two sequential continual steps (Replay4NCL)",
        scale="ci",
    )
    steps = tuple(range(len(result.steps)))
    report.add_series(Series(
        name="old-acc", x=steps, y=result.old_accuracy_trajectory,
        x_label="step", y_label="top1",
    ))
    report.add_series(Series(
        name="new-acc", x=steps, y=result.new_accuracy_trajectory,
        x_label="step", y_label="top1",
    ))
    report.scalars["final_old_acc"] = result.old_accuracy_trajectory[-1]
    record_result(report)

    # Replay must keep old knowledge alive through both steps.
    assert result.old_accuracy_trajectory[-1] > 0.4
