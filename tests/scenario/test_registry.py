"""Scenario registry, protocol conformance, and built-in step layouts."""

import numpy as np
import pytest

from repro.data.synthetic_shd import SyntheticSHD
from repro.errors import ConfigError, DataError
from repro.eval.scale import get_scale
from repro.scenario import (
    BlurryScenario,
    ContinualStep,
    DomainIncrementalScenario,
    Scenario,
    SequentialScenario,
    SingleStepScenario,
    available,
    get,
)
from repro.scenario.registry import SCENARIOS


@pytest.fixture(scope="module")
def context():
    preset = get_scale("ci")
    # Small sample counts: layout tests never train anything.
    experiment = preset.experiment.replace(
        samples_per_class=4, test_samples_per_class=2
    )
    generator = SyntheticSHD(preset.shd, seed=experiment.seed)
    return generator, experiment


class TestRegistry:
    def test_builtins_registered(self):
        names = available()
        assert names == sorted(names)
        for name in ("single-step", "sequential", "domain-incremental", "blurry"):
            assert name in names

    def test_get_returns_protocol_instances(self):
        for name in available():
            scenario = get(name)
            assert isinstance(scenario, Scenario)
            assert scenario.name == name
            assert scenario.describe()

    def test_table_keys_are_class_names(self):
        assert len(SCENARIOS) == 6
        for name, cls in SCENARIOS.items():
            assert cls.name == name
        assert available() == sorted(SCENARIOS)

    def test_get_returns_fresh_instances(self):
        first = get("sequential", steps_count=3)
        second = get("sequential")
        assert first is not second
        assert first.steps_count == 3
        assert second.steps_count != 3

    def test_get_forwards_kwargs(self):
        scenario = get("sequential", steps_count=3, classes_per_step=1)
        assert scenario.steps_count == 3

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            get("task-free")


class TestSingleStep:
    def test_yields_one_paper_step(self, context):
        generator, experiment = context
        steps = list(SingleStepScenario().steps(generator, experiment))
        assert len(steps) == 1
        step = steps[0]
        assert isinstance(step, ContinualStep)
        assert step.index == 0
        assert step.split.old_classes == (0, 1, 2, 3)
        assert step.split.new_classes == (4,)

    def test_override_base_classes(self, context):
        generator, experiment = context
        (step,) = SingleStepScenario(num_pretrain_classes=3).steps(
            generator, experiment
        )
        assert step.split.old_classes == (0, 1, 2)
        assert step.split.new_classes == (3, 4)


class TestSequential:
    def test_lazy_iterator(self, context):
        generator, experiment = context
        steps = SequentialScenario(steps_count=2).steps(generator, experiment)
        assert iter(steps) is steps  # a generator, not a list

    def test_step_class_layout(self, context):
        generator, experiment = context
        steps = list(SequentialScenario(steps_count=2).steps(generator, experiment))
        assert [s.split.new_classes for s in steps] == [(3,), (4,)]
        assert steps[1].split.old_classes == (0, 1, 2, 3)
        assert steps[0].index == 0 and steps[1].index == 1

    def test_default_base_uses_all_remaining_classes(self, context):
        generator, experiment = context
        steps = list(
            SequentialScenario(steps_count=1, classes_per_step=2).steps(
                generator, experiment
            )
        )
        assert steps[0].split.old_classes == (0, 1, 2)
        assert steps[0].split.new_classes == (3, 4)

    def test_too_many_steps(self, context):
        generator, experiment = context
        with pytest.raises(DataError):
            next(SequentialScenario(steps_count=9).steps(generator, experiment))

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            SequentialScenario(steps_count=0)


class TestDomainIncremental:
    def test_fixed_classes_drifting_inputs(self, context):
        generator, experiment = context
        all_classes = tuple(range(generator.config.num_classes))
        steps = list(
            DomainIncrementalScenario(steps_count=2).steps(generator, experiment)
        )
        assert len(steps) == 2
        for step in steps:
            assert step.split.old_classes == all_classes
            assert step.split.new_classes == all_classes
            np.testing.assert_array_equal(
                step.split.new_train.labels, step.split.pretrain_train.labels
            )

    def test_drift_actually_changes_data(self, context):
        generator, experiment = context
        (step, _) = DomainIncrementalScenario(steps_count=2).steps(
            generator, experiment
        )
        timesteps = generator.config.grid_steps
        clean = step.split.pretrain_train.to_dense(timesteps)
        drifted = step.split.new_train.to_dense(timesteps)
        assert not np.array_equal(clean, drifted)

    def test_severity_grows_per_step(self, context):
        generator, experiment = context
        steps = list(
            DomainIncrementalScenario(steps_count=3).steps(generator, experiment)
        )
        shifts = [s.info["max_shift"] for s in steps]
        dropouts = [s.info["dropout_p"] for s in steps]
        assert shifts == sorted(shifts) and shifts[0] < shifts[-1]
        assert dropouts == sorted(dropouts) and dropouts[0] < dropouts[-1]

    def test_deterministic(self, context):
        generator, experiment = context
        scenario = DomainIncrementalScenario(steps_count=1)
        (a,) = scenario.steps(generator, experiment)
        (b,) = scenario.steps(generator, experiment)
        t = generator.config.grid_steps
        np.testing.assert_array_equal(
            a.split.new_train.to_dense(t), b.split.new_train.to_dense(t)
        )

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            DomainIncrementalScenario(dropout_p=1.0)
        with pytest.raises(ConfigError):
            DomainIncrementalScenario(max_shift=-1)


class TestBlurry:
    def test_stream_blends_seen_classes(self, context):
        generator, experiment = context
        blurry = list(
            BlurryScenario(steps_count=2, blur_fraction=0.5).steps(
                generator, experiment
            )
        )
        crisp = list(SequentialScenario(steps_count=2).steps(generator, experiment))
        for b, c in zip(blurry, crisp):
            extra = len(b.split.new_train) - len(c.split.new_train)
            assert extra == b.info["minority_samples"] > 0
            # The blended samples keep their own (seen-class) labels.
            blended = set(b.split.new_train.labels.tolist())
            assert blended > set(c.split.new_train.labels.tolist())
            assert blended - set(c.split.new_train.labels.tolist()) <= set(
                b.split.old_classes
            )

    def test_eval_sets_stay_disjoint(self, context):
        generator, experiment = context
        for step in BlurryScenario(steps_count=2).steps(generator, experiment):
            assert set(step.split.new_test.labels.tolist()) <= set(
                step.split.new_classes
            )

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            BlurryScenario(blur_fraction=0.0)
        with pytest.raises(ConfigError):
            BlurryScenario(steps_count=-1)
