"""Task-incremental scenario: layout, masked evaluation, seed-sweep parity.

The defining properties under test, each across >= 3 seeds at ci scale:

- **store parity** — the store-backed run is bitwise-identical to the
  dense run (trajectories, networks, matrix), like every other scenario;
- **full-mask no-op** — masking the trained network's readout with the
  full class set reproduces the unmasked logits bitwise;
- **regime split** — training is bitwise-identical to the class-IL
  ``sequential`` run of the same seed (task ids are an *evaluation*
  device), while the task-IL accuracy matrix dominates the class-IL one
  entry-wise (the readout restricted to the true class's own group can
  only recover argmax errors, never create them).
"""

import numpy as np
import pytest

import oracle
from repro.core import ReplaySpec
from repro.core.pipeline import pretrain
from repro.data.synthetic_shd import SyntheticSHD
from repro.errors import DataError
from repro.eval.scale import get_scale
from repro.scenario import ContinualStep, TaskIncrementalScenario, get, run_scenario

SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def base_experiment():
    preset = get_scale("ci")
    # Short NCL phase: 3 seeds x 3 runs live in this module; the masking
    # and parity properties do not depend on the epoch count.
    return preset, preset.experiment.replace(
        ncl=preset.experiment.ncl.replace(epochs=3)
    )


@pytest.fixture(scope="module")
def sweep(base_experiment, tmp_path_factory):
    """Per seed: shared pretraining, then task-IL dense/store + class-IL."""
    preset, base = base_experiment
    out = {}
    for seed in SEEDS:
        experiment = base.replace(seed=seed)
        generator = SyntheticSHD(preset.shd, seed=seed)
        scenario = get("task-incremental")
        first = next(iter(scenario.steps(generator, experiment)))
        pretrained = pretrain(experiment, first.split)
        shared = dict(
            generator=generator, experiment=experiment, pretrained=pretrained
        )
        dense = run_scenario(scenario, "replay4ncl", **shared)
        root = tmp_path_factory.mktemp(f"task-il-{seed}") / "fed"
        stored = run_scenario(
            scenario,
            "replay4ncl",
            replay=ReplaySpec(store_dir=root, shard_samples=4),
            **shared,
        )
        class_il = run_scenario(get("sequential"), "replay4ncl", **shared)
        out[seed] = (dense, stored, class_il)
    return out


class TestStepLayout:
    def test_steps_carry_cumulative_task_groups(self, base_experiment):
        preset, experiment = base_experiment
        generator = SyntheticSHD(preset.shd, seed=experiment.seed)
        steps = list(
            TaskIncrementalScenario(steps_count=2).steps(generator, experiment)
        )
        assert all(isinstance(s, ContinualStep) for s in steps)
        # Step k carries k + 2 groups: base task + one per step so far.
        assert steps[0].task_classes == ((0, 1, 2), (3,))
        assert steps[1].task_classes == ((0, 1, 2), (3,), (4,))
        for step in steps:
            # The groups partition the classes seen so far, in order.
            flat = [c for group in step.task_classes for c in group]
            assert flat == sorted(set(flat))
            assert step.task_classes[-1] == step.split.new_classes

    def test_splits_match_sequential_bitwise(self, base_experiment):
        preset, experiment = base_experiment
        generator = SyntheticSHD(preset.shd, seed=experiment.seed)
        til = list(
            TaskIncrementalScenario(steps_count=2).steps(generator, experiment)
        )
        cil = list(get("sequential").steps(generator, experiment))
        for a, b in zip(til, cil):
            assert a.split.old_classes == b.split.old_classes
            assert a.split.new_classes == b.split.new_classes
            np.testing.assert_array_equal(
                a.split.new_train.to_dense(8), b.split.new_train.to_dense(8)
            )


class TestSeedSweepParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_store_backed_is_bitwise_identical(self, sweep, seed):
        dense, stored, _ = sweep[seed]
        assert len(dense.steps) == len(stored.steps)
        for mem, disk in zip(dense.steps, stored.steps):
            for a, b in zip(mem.history, disk.history):
                assert a.loss == b.loss
                assert a.overall_accuracy == b.overall_accuracy
            for p_mem, p_disk in zip(
                mem.network.parameters(), disk.network.parameters()
            ):
                np.testing.assert_array_equal(p_mem.data, p_disk.data)
        np.testing.assert_array_equal(
            dense.accuracy_matrix, stored.accuracy_matrix
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_mask_logits_bitwise_equal_unmasked(self, sweep, seed):
        # Mask equivalence on the *trained* network of each seed: the
        # full mask must be skipped entirely, leaving logits bitwise
        # untouched on the fused path and on the per-step oracle.
        dense, _, _ = sweep[seed]
        network = dense.steps[-1].network
        num_classes = network.readout.n_out
        timesteps = dense.steps[-1].timesteps
        rng = np.random.default_rng(seed)
        channels = network.config.layer_sizes[0]
        inputs = (rng.random((timesteps, 6, channels)) < 0.2).astype(np.float32)
        full = np.ones(num_classes, dtype=bool)
        for forward in (
            lambda **kw: network.forward(inputs, **kw).logits.data,
            lambda **kw: oracle.network_forward(network, inputs, **kw)[0],
        ):
            unmasked = forward()
            masked = forward(class_mask=full)
            np.testing.assert_array_equal(unmasked, masked)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_training_identical_to_class_incremental(self, sweep, seed):
        dense, _, class_il = sweep[seed]
        for til_step, cil_step in zip(dense.steps, class_il.steps):
            for a, b in zip(til_step.history, cil_step.history):
                assert a.loss == b.loss
            for p, q in zip(
                til_step.network.parameters(), cil_step.network.parameters()
            ):
                np.testing.assert_array_equal(p.data, q.data)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_masked_matrix_dominates_class_incremental(self, sweep, seed):
        dense, _, class_il = sweep[seed]
        til, cil = dense.accuracy_matrix, class_il.accuracy_matrix
        assert til.shape == cil.shape
        lower = np.tril_indices(til.shape[0])
        assert np.all(til[lower] >= cil[lower])
        assert dense.average_accuracy >= class_il.average_accuracy

    @pytest.mark.parametrize("seed", SEEDS)
    def test_result_surfaces_task_groups(self, sweep, seed):
        dense, stored, class_il = sweep[seed]
        for result in (dense, stored):
            assert result.task_incremental
            assert result.task_classes == ((0, 1, 2), (3,), (4,))
            assert "task-incremental eval" in result.describe()
        assert not class_il.task_incremental
        assert class_il.task_classes is None


class TestRunnerValidation:
    @pytest.fixture()
    def env(self, base_experiment):
        preset, experiment = base_experiment
        generator = SyntheticSHD(preset.shd, seed=experiment.seed)
        return generator, experiment

    def _steps_with(self, generator, experiment, mutate):
        scenario = TaskIncrementalScenario(steps_count=2)
        for step in scenario.steps(generator, experiment):
            yield mutate(step)

    def _scenario(self, mutate):
        outer = self

        class Mutated:
            name = "task-il-mutated"

            def describe(self):
                return "task-IL stream with corrupted task metadata"

            def steps(self, generator, experiment):
                return outer._steps_with(generator, experiment, mutate)

        return Mutated()

    def test_rejects_dropped_task_classes_mid_stream(self, env):
        import dataclasses

        generator, experiment = env

        def drop_later(step):
            if step.index == 0:
                return step
            return dataclasses.replace(step, task_classes=None)

        with pytest.raises(DataError, match="no task_classes"):
            run_scenario(
                self._scenario(drop_later),
                "naive",
                generator=generator,
                experiment=experiment,
            )

    def test_rejects_wrong_group_count(self, env):
        import dataclasses

        generator, experiment = env

        def truncate(step):
            return dataclasses.replace(
                step, task_classes=step.task_classes[:1]
            )

        with pytest.raises(DataError, match="task class groups"):
            run_scenario(
                self._scenario(truncate),
                "naive",
                generator=generator,
                experiment=experiment,
            )

    def test_rejects_task_classes_appearing_mid_stream(self, env):
        import dataclasses

        generator, experiment = env
        scenario = get("sequential")
        groups = ((0, 1, 2), (3,), (4,))

        def add_later(steps):
            for step in steps:
                if step.index == 0:
                    yield step
                else:
                    yield dataclasses.replace(
                        step, task_classes=groups[: step.index + 2]
                    )

        class LateDeclaration:
            name = "task-il-late"

            def describe(self):
                return "declares task membership only from step 1"

            def steps(self, generator, experiment):
                return add_later(scenario.steps(generator, experiment))

        with pytest.raises(DataError, match="first step did not"):
            run_scenario(
                LateDeclaration(),
                "naive",
                generator=generator,
                experiment=experiment,
            )
