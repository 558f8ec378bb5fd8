"""Scenario conformance suite over the closed scenario table.

Parametrized over :func:`repro.scenario.available`, so every built-in
scenario is held to the same invariants:

- protocol conformance (``name``/``describe()``/``steps()`` as the
  :class:`~repro.scenario.base.Scenario` protocol specifies, with the
  table name round-tripping);
- lazy step construction (``steps()`` returns a lazy iterator and does
  not touch the generator before iteration);
- same-seed determinism (two materialisations from fresh same-seed
  generators are bitwise-identical, datasets included);
- disjoint eval sets, for every scenario that *promises* them via a
  ``disjoint_eval = True`` attribute (``domain-incremental``
  intentionally does not — its "new" task is the same label space
  under drift);
- the per-step views (trajectories, final network, store root) of the
  scenario's :class:`~repro.scenario.runner.ScenarioResult`.

The table-wide suite builds each scenario with its default fields.  The
parameter grid (``TestParameterGridConformance``) holds every built-in
to the same contract under non-default fields — step counts, class
widths, base pools, blend fractions, drift severities, chunkings — and
also checks that the scenario yields exactly the steps its fields
declare, indexed ``0..n-1``.

The check functions are module-level so they can also be aimed at
deliberately broken scenarios: the suite must *fail* for a non-lazy or
non-deterministic implementation, and those failures are demonstrated
below (``TestConformanceCatchesViolations``).
"""

import itertools

import numpy as np
import pytest

from repro.data.synthetic_shd import SyntheticSHD
from repro.data.tasks import make_class_incremental
from repro.eval.scale import get_scale
from repro.scenario import Scenario, available, get, run_scenario
from repro.scenario.builtin import StreamingScenario

#: One parametrization per built-in scenario.
NAMES = available()

#: Non-default fields per built-in, all valid at ci scale (5 classes).
#: Each entry is ``(table name, fields)``; the grid suite builds it with
#: ``get(name, **fields)``.
GRID = [
    ("single-step", {"num_pretrain_classes": 1}),
    ("single-step", {"num_pretrain_classes": 2}),
    ("single-step", {"num_pretrain_classes": 3}),
    ("single-step", {"num_pretrain_classes": 4}),
    ("sequential", {"steps_count": 1}),
    ("sequential", {"steps_count": 3}),
    ("sequential", {"steps_count": 4}),
    ("sequential", {"steps_count": 1, "classes_per_step": 2}),
    ("sequential", {"steps_count": 2, "classes_per_step": 2}),
    ("sequential", {"steps_count": 1, "classes_per_step": 4}),
    ("sequential", {"steps_count": 2, "base_classes": 1}),
    ("sequential", {"steps_count": 1, "base_classes": 3}),
    ("task-incremental", {"steps_count": 1}),
    ("task-incremental", {"steps_count": 3}),
    ("task-incremental", {"steps_count": 4}),
    ("task-incremental", {"steps_count": 2, "classes_per_step": 2}),
    ("task-incremental", {"steps_count": 2, "base_classes": 1}),
    ("task-incremental", {"steps_count": 1, "classes_per_step": 3, "base_classes": 2}),
    ("blurry", {"steps_count": 1, "blur_fraction": 1.0}),
    ("blurry", {"steps_count": 3}),
    ("blurry", {"steps_count": 4, "blur_fraction": 0.5}),
    ("blurry", {"steps_count": 2, "classes_per_step": 2, "blur_fraction": 0.1}),
    ("blurry", {"steps_count": 2, "base_classes": 1, "blur_fraction": 1.0}),
    ("blurry", {"steps_count": 1, "classes_per_step": 3, "base_classes": 2}),
    ("domain-incremental", {"steps_count": 1, "max_shift": 0, "dropout_p": 0.0, "blur": False}),
    ("domain-incremental", {"steps_count": 3}),
    ("domain-incremental", {"steps_count": 2, "max_shift": 3, "dropout_p": 0.2, "blur": False}),
    ("domain-incremental", {"steps_count": 1, "max_shift": 1, "dropout_p": 0.3}),
    ("domain-incremental", {"steps_count": 4, "max_shift": 1, "dropout_p": 0.15}),
    ("domain-incremental", {"steps_count": 2, "max_shift": 0, "dropout_p": 0.0}),
    ("streaming", {"tasks": 1, "chunks_per_task": 1}),
    ("streaming", {"tasks": 1, "chunks_per_task": 4}),
    ("streaming", {"tasks": 3}),
    ("streaming", {"tasks": 2, "classes_per_task": 2}),
    ("streaming", {"tasks": 2, "chunks_per_task": 3, "base_classes": 1}),
    ("streaming", {"tasks": 1, "classes_per_task": 2, "chunks_per_task": 8, "base_classes": 2}),
]


def _grid_id(entry) -> str:
    name, fields = entry
    return name + "(" + ",".join(f"{k}={v}" for k, v in fields.items()) + ")"


GRID_IDS = [_grid_id(entry) for entry in GRID]

#: The grid entries whose scenario promises disjoint eval sets.
DISJOINT_GRID = [
    entry for entry in GRID if getattr(get(entry[0]), "disjoint_eval", False)
]

#: Safety cap for the conformance walks — a scenario may
#: describe an arbitrarily long stream; conformance only needs a prefix.
MAX_STEPS = 16

#: Coarse raster used for bitwise dataset comparison (any fixed value
#: works: `to_dense` is deterministic per dataset).
DENSE_T = 8


@pytest.fixture(scope="module")
def env():
    preset = get_scale("ci")
    # Small sample counts: the structural checks never train anything.
    experiment = preset.experiment.replace(
        samples_per_class=4, test_samples_per_class=2
    )
    return preset, experiment


# ---------------------------------------------------------------------------
# Check functions (reused below against deliberately broken scenarios)
# ---------------------------------------------------------------------------


class _ForbiddenGenerator:
    """Explodes on any use: ``steps()`` must not do data work eagerly."""

    def __getattr__(self, attr):
        raise AssertionError(
            f"steps() touched generator.{attr} before the iterator was "
            "advanced — step construction must be lazy"
        )


def check_protocol(scenario, table_name: str) -> None:
    """Structural Scenario conformance + table-name round-trip."""
    assert isinstance(scenario, Scenario), (
        f"{type(scenario).__name__} does not satisfy the Scenario protocol"
    )
    assert scenario.name == table_name, (
        f"scenario.name {scenario.name!r} != table name {table_name!r}"
    )
    description = scenario.describe()
    assert isinstance(description, str) and description.strip(), (
        "describe() must return a non-empty one-line summary"
    )


def check_lazy_steps(scenario, experiment) -> None:
    """``steps()`` returns a lazy iterator and defers all data work."""
    iterator = scenario.steps(_ForbiddenGenerator(), experiment)
    assert iter(iterator) is iterator, (
        "steps() must return a lazy iterator, not a materialised sequence"
    )


def _materialise(scenario, preset, experiment):
    """Steps from a fresh same-seed generator, flattened for comparison."""
    generator = SyntheticSHD(preset.shd, seed=experiment.seed)
    steps = list(
        itertools.islice(scenario.steps(generator, experiment), MAX_STEPS)
    )
    assert steps, f"scenario {scenario.name!r} yielded no steps"
    return steps


def check_deterministic(scenario, preset, experiment) -> None:
    """Two same-seed materialisations are bitwise-identical."""
    first = _materialise(scenario, preset, experiment)
    second = _materialise(scenario, preset, experiment)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.index == b.index
        assert a.name == b.name, (
            f"step {a.index} name differs across same-seed runs: "
            f"{a.name!r} vs {b.name!r}"
        )
        assert repr(a.info) == repr(b.info)
        assert a.task_classes == b.task_classes
        for field in ("pretrain_train", "pretrain_test", "new_train", "new_test"):
            da, db = getattr(a.split, field), getattr(b.split, field)
            np.testing.assert_array_equal(da.labels, db.labels)
            np.testing.assert_array_equal(
                da.to_dense(DENSE_T), db.to_dense(DENSE_T)
            )


def check_disjoint_eval(scenario, preset, experiment) -> None:
    """Every step's eval sets honour a ``disjoint_eval = True`` promise."""
    for step in _materialise(scenario, preset, experiment):
        old = set(step.split.old_classes)
        new = set(step.split.new_classes)
        assert not old & new, (
            f"step {step.index}: old and new class sets overlap: {old & new}"
        )
        assert set(step.split.new_test.labels.tolist()) <= new, (
            f"step {step.index}: new_test carries labels outside new_classes"
        )
        assert set(step.split.pretrain_test.labels.tolist()) <= old, (
            f"step {step.index}: pretrain_test carries labels outside "
            "old_classes"
        )


def declared_steps(scenario) -> int:
    """How many steps ``scenario``'s fields say it yields."""
    if isinstance(scenario, StreamingScenario):
        return scenario.tasks * scenario.chunks_per_task
    return getattr(scenario, "steps_count", 1)


def check_step_count(scenario, preset, experiment) -> None:
    """The scenario yields exactly its declared steps, indexed ``0..n-1``."""
    expected = declared_steps(scenario)
    assert expected <= MAX_STEPS
    steps = _materialise(scenario, preset, experiment)
    assert [step.index for step in steps] == list(range(expected)), (
        f"scenario {scenario.name!r} declares {expected} step(s) but "
        f"yielded indices {[step.index for step in steps]}"
    )


# ---------------------------------------------------------------------------
# The table-wide suite
# ---------------------------------------------------------------------------


class TestRegisteredScenarioConformance:
    @pytest.mark.parametrize("name", NAMES)
    def test_protocol(self, name):
        check_protocol(get(name), name)

    @pytest.mark.parametrize("name", NAMES)
    def test_lazy_step_construction(self, name, env):
        _, experiment = env
        check_lazy_steps(get(name), experiment)

    @pytest.mark.parametrize("name", NAMES)
    def test_same_seed_determinism(self, name, env):
        preset, experiment = env
        check_deterministic(get(name), preset, experiment)

    @pytest.mark.parametrize("name", NAMES)
    def test_disjoint_eval_where_promised(self, name, env):
        preset, experiment = env
        scenario = get(name)
        if getattr(scenario, "disjoint_eval", False) is not True:
            pytest.skip(f"{name} does not promise disjoint eval sets")
        check_disjoint_eval(scenario, preset, experiment)


class TestParameterGridConformance:
    @pytest.mark.parametrize("entry", GRID, ids=GRID_IDS)
    def test_protocol(self, entry):
        name, fields = entry
        check_protocol(get(name, **fields), name)

    @pytest.mark.parametrize("entry", GRID, ids=GRID_IDS)
    def test_lazy_step_construction(self, entry, env):
        _, experiment = env
        name, fields = entry
        check_lazy_steps(get(name, **fields), experiment)

    @pytest.mark.parametrize("entry", GRID, ids=GRID_IDS)
    def test_same_seed_determinism(self, entry, env):
        preset, experiment = env
        name, fields = entry
        check_deterministic(get(name, **fields), preset, experiment)

    @pytest.mark.parametrize("entry", GRID, ids=GRID_IDS)
    def test_declared_step_count(self, entry, env):
        preset, experiment = env
        name, fields = entry
        check_step_count(get(name, **fields), preset, experiment)

    @pytest.mark.parametrize(
        "entry", DISJOINT_GRID, ids=[_grid_id(e) for e in DISJOINT_GRID]
    )
    def test_disjoint_eval(self, entry, env):
        preset, experiment = env
        name, fields = entry
        check_disjoint_eval(get(name, **fields), preset, experiment)


@pytest.fixture(scope="module")
def tiny_runs(env):
    """One ultra-short end-to-end run per scenario, computed on demand."""
    preset, base = env
    experiment = base.replace(
        pretrain=base.pretrain.replace(epochs=1),
        ncl=base.ncl.replace(epochs=1),
    )
    generator = SyntheticSHD(preset.shd, seed=experiment.seed)
    cache = {}

    def run(name):
        if name not in cache:
            cache[name] = run_scenario(
                name, "replay4ncl", generator=generator, experiment=experiment
            )
        return cache[name]

    return run


class TestPerStepViews:
    @pytest.mark.parametrize("name", NAMES)
    def test_per_step_views(self, name, tiny_runs):
        result = tiny_runs(name)
        assert result.store_root is None
        assert result.old_accuracy_trajectory == tuple(
            step.final_old_accuracy for step in result.steps
        )
        assert result.new_accuracy_trajectory == tuple(
            step.final_new_accuracy for step in result.steps
        )


# ---------------------------------------------------------------------------
# The suite must fail for broken scenarios — demonstrated directly
# ---------------------------------------------------------------------------


class _EagerScenario:
    """Materialises its data inside ``steps()`` — the non-lazy offender."""

    name = "bad-eager"
    disjoint_eval = True

    def describe(self):
        return "touches the generator before iteration"

    def steps(self, generator, experiment):
        split = make_class_incremental(
            generator,
            experiment.samples_per_class,
            experiment.test_samples_per_class,
        )
        from repro.scenario import ContinualStep

        return [ContinualStep(index=0, split=split, name="step-0")]


class _ListScenario:
    """Lazy about data but returns a materialised list, not an iterator."""

    name = "bad-list"

    def describe(self):
        return "returns a list from steps()"

    def steps(self, generator, experiment):
        return []


class _FlakyScenario:
    """Step labels differ between same-seed materialisations."""

    _counter = itertools.count()
    name = "bad-flaky"

    def describe(self):
        return "non-deterministic step names"

    def steps(self, generator, experiment):
        split = make_class_incremental(
            generator,
            experiment.samples_per_class,
            experiment.test_samples_per_class,
        )
        from repro.scenario import ContinualStep

        yield ContinualStep(
            index=0, split=split, name=f"step-{next(self._counter)}"
        )


class _ShortScenario:
    """Declares two steps but yields one."""

    name = "bad-short"
    steps_count = 2

    def describe(self):
        return "yields fewer steps than steps_count declares"

    def steps(self, generator, experiment):
        split = make_class_incremental(
            generator,
            experiment.samples_per_class,
            experiment.test_samples_per_class,
        )
        from repro.scenario import ContinualStep

        yield ContinualStep(index=0, split=split, name="step-0")


class TestConformanceCatchesViolations:
    def test_rejects_eager_scenario(self, env):
        _, experiment = env
        with pytest.raises(AssertionError, match="touched generator"):
            check_lazy_steps(_EagerScenario(), experiment)

    def test_rejects_materialised_sequence(self, env):
        _, experiment = env
        with pytest.raises(AssertionError, match="lazy iterator"):
            check_lazy_steps(_ListScenario(), experiment)

    def test_rejects_non_deterministic_scenario(self, env):
        preset, experiment = env
        with pytest.raises(AssertionError, match="differs across same-seed"):
            check_deterministic(_FlakyScenario(), preset, experiment)

    def test_rejects_short_stream(self, env):
        preset, experiment = env
        with pytest.raises(AssertionError, match="declares 2 step"):
            check_step_count(_ShortScenario(), preset, experiment)

    def test_checks_cover_third_party_scenarios(self, env):
        # A well-formed third-party scenario, passed to run_scenario as
        # an instance, passes the exact same check functions the suite
        # applies to the built-ins.
        preset, experiment = env

        class ThirdParty:
            name = "third-party-ok"
            disjoint_eval = True

            def describe(self):
                return "a conforming external scenario"

            def steps(self, generator, experiment):
                split = make_class_incremental(
                    generator,
                    experiment.samples_per_class,
                    experiment.test_samples_per_class,
                )
                from repro.scenario import ContinualStep

                yield ContinualStep(index=0, split=split, name="step-0")

        scenario = ThirdParty()
        check_protocol(scenario, "third-party-ok")
        check_lazy_steps(scenario, experiment)
        check_deterministic(scenario, preset, experiment)
        check_disjoint_eval(scenario, preset, experiment)
