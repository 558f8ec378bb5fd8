"""`run_scenario` end-to-end: all four built-ins, dense and store-backed.

The acceptance bar of the scenario-first redesign: every registered
scenario executes end-to-end at ci scale, the store-backed path
(one `ReplaySpec`, federated per-step stores) reproduces the dense
trajectory bitwise, and the accuracy matrix / CL metrics are coherent.
"""

import numpy as np
import pytest

from repro.core import ReplaySpec
from repro.core.pipeline import pretrain
from repro.data.synthetic_shd import SyntheticSHD
from repro.errors import ConfigError, DataError
from repro.eval.scale import get_scale
from repro.replaystore import FederatedReplayStore
from repro.scenario import (
    ScenarioResult,
    SequentialScenario,
    average_accuracy,
    backward_transfer,
    forgetting,
    get,
    run_scenario,
)

SCENARIOS = [
    "single-step",
    "sequential",
    "task-incremental",
    "domain-incremental",
    "blurry",
]


@pytest.fixture(scope="module")
def env():
    preset = get_scale("ci")
    # Short NCL phase: 8 scenario runs live in this module; the paths
    # exercised do not depend on the epoch count.
    experiment = preset.experiment.replace(
        ncl=preset.experiment.ncl.replace(epochs=4)
    )
    generator = SyntheticSHD(preset.shd, seed=experiment.seed)
    return generator, experiment


@pytest.fixture(scope="module")
def runs(env, tmp_path_factory):
    """Each scenario once dense and once store-backed, shared pretraining."""
    generator, experiment = env
    out = {}
    for name in SCENARIOS:
        scenario = get(name)
        first = next(iter(scenario.steps(generator, experiment)))
        pretrained = pretrain(experiment, first.split)
        shared = dict(
            generator=generator, experiment=experiment, pretrained=pretrained
        )
        dense = run_scenario(scenario, "replay4ncl", **shared)
        root = tmp_path_factory.mktemp(f"scenario-{name}") / "fed"
        stored = run_scenario(
            scenario,
            "replay4ncl",
            replay=ReplaySpec(store_dir=root, shard_samples=4),
            **shared,
        )
        out[name] = (dense, stored, pretrained)
    return out


class TestAllScenariosEndToEnd:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_executes_and_shapes(self, runs, name):
        dense, stored, _ = runs[name]
        for result in (dense, stored):
            assert isinstance(result, ScenarioResult)
            assert result.scenario == name
            assert result.method == "replay4ncl"
            steps = len(result.steps)
            assert steps >= 1
            assert len(result.step_names) == steps
            assert result.accuracy_matrix.shape == (steps + 1, steps + 1)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_matrix_triangular_and_finite(self, runs, name):
        dense, _, _ = runs[name]
        matrix = dense.accuracy_matrix
        sessions = matrix.shape[0]
        for i in range(sessions):
            assert np.all(np.isfinite(matrix[i, : i + 1]))
            assert np.all(np.isnan(matrix[i, i + 1 :]))
        assert matrix[0, 0] == dense.pretrain_accuracy

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_metrics_derive_from_matrix(self, runs, name):
        dense, _, _ = runs[name]
        matrix = dense.accuracy_matrix
        assert dense.average_accuracy == average_accuracy(matrix)
        assert dense.forgetting == forgetting(matrix)
        assert dense.backward_transfer == backward_transfer(matrix)
        assert 0.0 <= dense.average_accuracy <= 1.0

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_store_backed_is_bitwise_identical(self, runs, name):
        dense, stored, _ = runs[name]
        assert len(dense.steps) == len(stored.steps)
        for mem, disk in zip(dense.steps, stored.steps):
            assert len(mem.history) == len(disk.history)
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

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_store_artifacts(self, runs, name):
        dense, stored, _ = runs[name]
        assert dense.store_root is None
        assert stored.store_root is not None
        federation = FederatedReplayStore.open(stored.store_root)
        assert federation.member_names == [
            f"step-{k:03d}" for k in range(len(stored.steps))
        ]
        for step in stored.steps:
            assert step.replay_store_path is not None
            assert step.replay_peak_resident_bytes > 0

    def test_matrix_row0_uses_ncl_deployment_semantics(self, env, runs):
        # R[0, 0] must be measured exactly like every later row — NCL
        # timesteps + the method's threshold controller — or the
        # systematic pretrain-vs-NCL timestep gap would masquerade as
        # forgetting/negative BWT of the base task.
        from repro.core import Replay4NCL
        from repro.scenario.runner import _task_accuracy

        generator, experiment = env
        dense, _, pretrained = runs["single-step"]
        first = next(iter(get("single-step").steps(generator, experiment)))
        probe = Replay4NCL(experiment)
        expected = _task_accuracy(
            pretrained.network,
            first.split.pretrain_test,
            probe.ncl_timesteps(),
            probe,
        )
        assert dense.accuracy_matrix[0, 0] == expected
        assert dense.pretrain_accuracy == expected

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_per_step_views(self, runs, name):
        dense, _, _ = runs[name]
        assert dense.old_accuracy_trajectory == tuple(
            step.final_old_accuracy for step in dense.steps
        )
        text = dense.describe()
        assert name in text and "forgetting" in text


class TestRunScenarioAPI:
    def test_accepts_registry_names_and_instances(self, env):
        generator, experiment = env
        scenario = get("single-step")
        by_name = run_scenario(
            "single-step", "naive", generator=generator, experiment=experiment
        )
        by_instance = run_scenario(
            scenario, "naive", generator=generator, experiment=experiment
        )
        # The registry name round-trips (not the instance's own
        # "naive-finetune" display name).
        assert by_name.method == by_instance.method == "naive"
        np.testing.assert_array_equal(
            by_name.accuracy_matrix, by_instance.accuracy_matrix
        )

    def test_unknown_scenario_and_method(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            run_scenario("task-free")
        with pytest.raises(ConfigError, match="unknown method"):
            run_scenario("single-step", "sgd")

    def test_rejects_method_instance(self, env):
        generator, experiment = env
        from repro.core import Replay4NCL

        with pytest.raises(ConfigError, match="fresh method"):
            run_scenario(
                "single-step",
                Replay4NCL(experiment),
                generator=generator,
                experiment=experiment,
            )

    def test_rejects_non_scenario(self):
        with pytest.raises(ConfigError, match="scenario must be"):
            run_scenario(42)

    def test_empty_scenario(self, env):
        generator, experiment = env

        class Empty:
            name = "empty"

            def describe(self):
                return "no steps"

            def steps(self, generator, experiment):
                return iter(())

        with pytest.raises(DataError, match="yielded no steps"):
            run_scenario(Empty(), generator=generator, experiment=experiment)

    def test_bare_network_as_pretrained(self, env, runs):
        # A bare SpikingNetwork works as the starting point; the base
        # accuracy is then measured inside run_scenario.
        generator, experiment = env
        dense, _, _ = runs["single-step"]
        result = run_scenario(
            "single-step",
            "naive",
            generator=generator,
            experiment=experiment,
            pretrained=dense.steps[-1].network,
        )
        assert 0.0 <= result.pretrain_accuracy <= 1.0

    def test_max_steps_stops_before_building_the_next_step(self, env, monkeypatch):
        # Stopping after step 0 builds step 0's split (4 datasets) and
        # never materializes step 1's.
        _, experiment = env
        generator = SyntheticSHD(get_scale("ci").shd, seed=experiment.seed)
        built = []
        generate_dataset = generator.generate_dataset

        def counting(*args, **kwargs):
            built.append(kwargs.get("split"))
            return generate_dataset(*args, **kwargs)

        monkeypatch.setattr(generator, "generate_dataset", counting)
        result = run_scenario(
            SequentialScenario(steps_count=3),
            generator=generator,
            experiment=experiment,
            max_steps=1,
        )
        assert len(result.steps) == 1
        assert len(built) == 4


class TestExperimentsWiring:
    def test_run_scenario_at_scale_reuses_context(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        from repro.eval import experiments
        from repro.scenario import runner

        experiments.context("ci")  # warm the shared pre-training

        def no_pretrain(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("pre-training must be reused, not re-run")

        monkeypatch.setattr(runner, "pretrain", no_pretrain)
        result = experiments.run_scenario_at_scale("single-step", "naive", scale="ci")
        assert result.scenario == "single-step"
        assert len(result.steps) == 1

    def test_run_scenario_at_scale_skips_cache_on_override(
        self, env, monkeypatch, tmp_path
    ):
        # A caller-supplied experiment changes the base split; the
        # cached network must NOT be injected silently — a fresh
        # pre-training run happens instead.
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        from repro.eval import experiments
        from repro.scenario import runner

        _, experiment = env
        custom = experiment.replace(num_pretrain_classes=3)
        calls = []
        real_pretrain = runner.pretrain

        def counting_pretrain(*args, **kwargs):
            calls.append(args)
            return real_pretrain(*args, **kwargs)

        monkeypatch.setattr(runner, "pretrain", counting_pretrain)
        result = experiments.run_scenario_at_scale(
            "single-step", "naive", scale="ci", experiment=custom
        )
        assert len(calls) == 1
        # The scenario really used the overridden 3-class base.
        assert len(result.steps[0].history) > 0
        assert result.accuracy_matrix.shape == (2, 2)
