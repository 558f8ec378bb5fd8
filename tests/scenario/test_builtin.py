"""Built-in scenarios: golden bitwise identities and fingerprint inputs.

The ``blurry``, ``domain-incremental`` and ``task-incremental``
built-ins implement their own ``steps()``.  Their bitwise contract —
same steps, same names, same data at the same seed as the original
implementations — is pinned here against *inline legacy
reimplementations* (transcribed from the original built-ins, not
imported from the package; only the plain class stream they decorate
comes from ``SequentialScenario``), so a regression cannot hide behind
"both sides changed together".

``repr(scenario)`` feeds :func:`~repro.scenario.run_fingerprint`, so the
default ``repr`` of every table entry is pinned too: a changed field,
field order or class name would orphan every checkpoint written before.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.data.synthetic_shd import SyntheticSHD
from repro.data.tasks import ClassIncrementalSplit
from repro.data.transforms import drift_dataset
from repro.eval.scale import get_scale
from repro.scenario import ContinualStep, SequentialScenario, available, get
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
# Inline legacy reimplementations (transcribed from the original
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
    """The built-ins reproduce the legacy implementations bitwise."""

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


#: ``repr(get(name))`` of every table entry: the checkpoint fingerprint input.
DEFAULT_REPRS = {
    "blurry": "BlurryScenario(steps_count=2, classes_per_step=1, "
    "base_classes=None, blur_fraction=0.25)",
    "domain-incremental": "DomainIncrementalScenario(steps_count=2, "
    "max_shift=2, dropout_p=0.05, blur=True)",
    "sequential": "SequentialScenario(steps_count=2, classes_per_step=1, "
    "base_classes=None)",
    "single-step": "SingleStepScenario(num_pretrain_classes=None)",
    "streaming": "StreamingScenario(tasks=2, classes_per_task=1, "
    "chunks_per_task=2, base_classes=None)",
    "task-incremental": "TaskIncrementalScenario(steps_count=2, "
    "classes_per_step=1, base_classes=None)",
}


@pytest.mark.parametrize("name", available())
def test_default_repr_is_pinned(name):
    assert repr(get(name)) == DEFAULT_REPRS[name]
