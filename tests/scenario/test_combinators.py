"""Scenario combinators: golden bitwise identities + per-combinator behavior.

The ``blurry``, ``domain-incremental`` and ``task-incremental``
built-ins are now thin aliases over combinator chains.  Their bitwise
contract — same steps, same names, same data at the same seed as the
pre-combinator implementations — is pinned here against *inline legacy
reimplementations* of what the combinators add (transcribed from the
original built-ins, not imported from the package; only the plain class
stream they decorate comes from ``SequentialScenario``), so a regression
in either the combinators or the alias wiring cannot hide behind "both
sides changed together".

The second half covers behavior the aliases don't exercise: combinator
nesting, class repetition, label noise, and argument validation.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.data.synthetic_shd import SyntheticSHD
from repro.data.tasks import ClassIncrementalSplit
from repro.data.transforms import drift_dataset
from repro.errors import ConfigError
from repro.eval.scale import get_scale
from repro.scenario import (
    ContinualStep,
    SequentialScenario,
    StationaryScenario,
    get,
    with_blur,
    with_class_repetition,
    with_drift,
    with_label_noise,
    with_task_masks,
)
from repro.seeding import spawn

DENSE_T = 8
MAX_STEPS = 8


@pytest.fixture(scope="module")
def env():
    preset = get_scale("ci")
    experiment = preset.experiment.replace(
        samples_per_class=4, test_samples_per_class=2
    )
    return preset, experiment


def materialise(scenario, preset, experiment):
    generator = SyntheticSHD(preset.shd, seed=experiment.seed)
    return list(
        itertools.islice(scenario.steps(generator, experiment), MAX_STEPS)
    )


def assert_steps_identical(actual, expected):
    """Full bitwise step equality: labels, rasters, names, metadata."""
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        assert a.index == b.index
        assert a.name == b.name
        assert repr(dict(a.info)) == repr(dict(b.info))
        assert a.task_classes == b.task_classes
        assert a.split.old_classes == b.split.old_classes
        assert a.split.new_classes == b.split.new_classes
        for field in ("pretrain_train", "pretrain_test", "new_train", "new_test"):
            da, db = getattr(a.split, field), getattr(b.split, field)
            np.testing.assert_array_equal(da.labels, db.labels)
            np.testing.assert_array_equal(da.to_dense(DENSE_T), db.to_dense(DENSE_T))


# ---------------------------------------------------------------------------
# Inline legacy reimplementations (transcribed from the pre-combinator
# built-ins; the seed keys and name formats are the bitwise contract)
# ---------------------------------------------------------------------------


def legacy_blurry_steps(
    generator, experiment, *, steps_count=2, classes_per_step=1, blur_fraction=0.25
):
    stream = SequentialScenario(
        steps_count=steps_count, classes_per_step=classes_per_step
    )
    for k, step in enumerate(stream.steps(generator, experiment)):
        split = step.split
        rng = spawn(experiment.seed, f"scenario:blurry:{k}")
        minority = split.pretrain_train.sample_fraction(blur_fraction, rng)
        blurred = dataclasses.replace(
            split, new_train=split.new_train.concat(minority)
        )
        yield ContinualStep(
            index=k,
            split=blurred,
            name=(
                f"step-{k}: +classes {list(split.new_classes)} "
                f"(+{len(minority)} seen-class samples)"
            ),
            info={
                "new_classes": split.new_classes,
                "minority_samples": len(minority),
                "blur_fraction": blur_fraction,
            },
        )


def legacy_domain_steps(
    generator, experiment, *, steps_count=2, max_shift=2, dropout_p=0.05, blur=True
):
    clean_train = generator.generate_dataset(
        experiment.samples_per_class, split="train"
    )
    clean_test = generator.generate_dataset(
        experiment.test_samples_per_class, split="test"
    )
    all_classes = tuple(range(generator.config.num_classes))
    grid = generator.config.grid_steps
    for k in range(steps_count):
        severity = {
            "max_shift": (k + 1) * max_shift,
            "dropout_p": min((k + 1) * dropout_p, 0.45),
            "blur_steps": max(grid // (k + 2), 8) if blur else None,
        }
        rng = spawn(experiment.seed, f"scenario:domain:{k}")
        split = ClassIncrementalSplit(
            pretrain_train=clean_train,
            pretrain_test=clean_test,
            new_train=drift_dataset(clean_train, rng, grid_steps=grid, **severity),
            new_test=drift_dataset(clean_test, rng, grid_steps=grid, **severity),
            old_classes=all_classes,
            new_classes=all_classes,
        )
        yield ContinualStep(
            index=k,
            split=split,
            name=f"step-{k}: domain drift severity {k + 1}",
            info={"domain": k + 1, **severity},
        )


def legacy_task_incremental_steps(
    generator, experiment, *, steps_count=2, classes_per_step=1
):
    stream = SequentialScenario(
        steps_count=steps_count, classes_per_step=classes_per_step
    )
    groups = []
    for k, step in enumerate(stream.steps(generator, experiment)):
        split = step.split
        if not groups:
            groups.append(split.old_classes)
        groups.append(split.new_classes)
        yield ContinualStep(
            index=k,
            split=split,
            name=f"step-{k}: +task {list(split.new_classes)}",
            info={"new_classes": split.new_classes},
            task_classes=tuple(groups),
        )


class TestGoldenBitwiseIdentity:
    """Combinator-backed aliases reproduce the legacy built-ins bitwise."""

    def test_blurry_matches_legacy(self, env):
        preset, experiment = env
        generator = SyntheticSHD(preset.shd, seed=experiment.seed)
        golden = list(legacy_blurry_steps(generator, experiment))
        assert_steps_identical(
            materialise(get("blurry"), preset, experiment), golden
        )

    def test_domain_incremental_matches_legacy(self, env):
        preset, experiment = env
        generator = SyntheticSHD(preset.shd, seed=experiment.seed)
        golden = list(legacy_domain_steps(generator, experiment))
        assert_steps_identical(
            materialise(get("domain-incremental"), preset, experiment), golden
        )

    def test_task_incremental_matches_legacy(self, env):
        preset, experiment = env
        generator = SyntheticSHD(preset.shd, seed=experiment.seed)
        golden = list(legacy_task_incremental_steps(generator, experiment))
        assert_steps_identical(
            materialise(get("task-incremental"), preset, experiment), golden
        )

    def test_aliases_equal_explicit_combinator_chains(self, env):
        # The registered aliases and hand-built combinator chains are
        # the same stream — the aliases add no hidden behavior.
        preset, experiment = env
        pairs = [
            (get("blurry"), with_blur(SequentialScenario())),
            (get("domain-incremental"), with_drift(StationaryScenario())),
            (get("task-incremental"), with_task_masks(SequentialScenario())),
        ]
        for alias, chain in pairs:
            assert_steps_identical(
                materialise(alias, preset, experiment),
                materialise(chain, preset, experiment),
            )


class TestNesting:
    def test_blur_then_task_masks(self, env):
        preset, experiment = env
        chained = with_task_masks(with_blur(SequentialScenario()))
        assert chained.name == "sequential+blur+task-masks"
        steps = materialise(chained, preset, experiment)
        plain = materialise(SequentialScenario(), preset, experiment)
        for step, base in zip(steps, plain):
            # Blur's data effect survives under the outer wrapper...
            assert step.info["minority_samples"] > 0
            assert len(step.split.new_train.labels) > len(
                base.split.new_train.labels
            )
            # ...and task-masks decorates on top.
            assert step.task_classes is not None
            assert step.name.startswith(f"step-{step.index}: +task")

    def test_order_is_inside_out(self, env):
        # with_blur(with_task_masks(s)) renames blur-last; the reverse
        # renames task-masks-last — the chains are not interchangeable.
        preset, experiment = env
        blur_outer = materialise(
            with_blur(with_task_masks(SequentialScenario())), preset, experiment
        )
        masks_outer = materialise(
            with_task_masks(with_blur(SequentialScenario())), preset, experiment
        )
        assert "(+" in blur_outer[0].name  # blur's suffix survived
        assert masks_outer[0].name.startswith("step-0: +task")
        assert blur_outer[0].name != masks_outer[0].name
        # Data-wise both carry the same blended training stream.
        np.testing.assert_array_equal(
            blur_outer[0].split.new_train.labels,
            masks_outer[0].split.new_train.labels,
        )


class TestClassRepetition:
    def test_re_presents_classes_after_period(self, env):
        preset, experiment = env
        scenario = with_class_repetition(
            SequentialScenario(steps_count=3), period=1
        )
        steps = materialise(scenario, preset, experiment)
        plain = materialise(SequentialScenario(steps_count=3), preset, experiment)
        # Step 0 has nothing old enough to repeat.
        assert steps[0].info["repeated_classes"] == ()
        np.testing.assert_array_equal(
            steps[0].split.new_train.labels, plain[0].split.new_train.labels
        )
        # Step k >= 1 re-presents the classes that arrived at step k-1.
        for k in (1, 2):
            repeated = steps[k].info["repeated_classes"]
            assert repeated == plain[k - 1].split.new_classes
            extra = set(steps[k].split.new_train.labels.tolist()) - set(
                plain[k].split.new_train.labels.tolist()
            )
            assert extra == set(repeated)
            assert f"(repeat {list(repeated)})" in steps[k].name
            # Evaluation sets are untouched.
            np.testing.assert_array_equal(
                steps[k].split.new_test.labels, plain[k].split.new_test.labels
            )

    def test_period_beyond_stream_never_repeats(self, env):
        preset, experiment = env
        scenario = with_class_repetition(
            SequentialScenario(steps_count=2), period=5
        )
        for step in materialise(scenario, preset, experiment):
            assert step.info["repeated_classes"] == ()


class TestLabelNoise:
    def test_flips_exactly_the_requested_fraction(self, env):
        preset, experiment = env
        scenario = with_label_noise(SequentialScenario(), noise_fraction=0.5)
        steps = materialise(scenario, preset, experiment)
        plain = materialise(SequentialScenario(), preset, experiment)
        for noisy, base in zip(steps, plain):
            clean = base.split.new_train.labels
            flipped = noisy.split.new_train.labels
            expected = int(np.ceil(0.5 * len(clean)))
            changed = int((clean != flipped).sum())
            assert noisy.info["noisy_labels"] == expected
            # Every flip targets a *different* label, so the changed
            # count equals the flip count exactly.
            assert changed == expected
            seen = set(base.split.old_classes) | set(base.split.new_classes)
            assert set(flipped.tolist()) <= seen
            assert f"({expected} noisy labels)" in noisy.name
            # Spike streams and eval labels are untouched.
            np.testing.assert_array_equal(
                noisy.split.new_train.to_dense(DENSE_T),
                base.split.new_train.to_dense(DENSE_T),
            )
            np.testing.assert_array_equal(
                noisy.split.new_test.labels, base.split.new_test.labels
            )

    def test_deterministic_across_materialisations(self, env):
        preset, experiment = env
        scenario = with_label_noise(SequentialScenario(), noise_fraction=0.3)
        first = materialise(scenario, preset, experiment)
        second = materialise(scenario, preset, experiment)
        assert_steps_identical(first, second)


class TestValidation:
    def test_factory_argument_validation(self):
        base = SequentialScenario()
        with pytest.raises(ConfigError, match="max_shift"):
            with_drift(base, max_shift=-1)
        with pytest.raises(ConfigError, match="dropout_p"):
            with_drift(base, dropout_p=1.0)
        with pytest.raises(ConfigError, match="blur_fraction"):
            with_blur(base, blur_fraction=0.0)
        with pytest.raises(ConfigError, match="period"):
            with_class_repetition(base, period=0)
        with pytest.raises(ConfigError, match="noise_fraction"):
            with_label_noise(base, noise_fraction=1.5)

    def test_describe_composes(self):
        wrapped = with_blur(SequentialScenario())
        base_text = SequentialScenario().describe()
        assert wrapped.describe().startswith(base_text)
        assert "blend" in wrapped.describe()
