"""Sequential (multi-step) class-incremental runs through `run_scenario`.

`SequentialScenario` lays out the class stream: step k learns the next
``classes_per_step`` classes and replays every class seen so far.
`run_scenario` chains one NCL run per step, each starting from the
network the previous step trained.
"""

import numpy as np
import pytest

from repro.core import Replay4NCL
from repro.core.pipeline import pretrain
from repro.core.strategies import EpochCost, NCLResult
from repro.data.synthetic_shd import SyntheticSHD
from repro.data.tasks import make_class_incremental
from repro.errors import ConfigError, DataError
from repro.eval.scale import get_scale
from repro.scenario import ScenarioResult, SequentialScenario, run_scenario
from repro.training.metrics import TrainingHistory

#: ci has 5 classes: pre-train on 3, learn classes 3 and 4 in two steps.
STREAM = SequentialScenario(steps_count=2, base_classes=3)


def _result_without_network() -> NCLResult:
    """A syntactically complete NCLResult whose network was dropped."""
    return NCLResult(
        method="stub",
        insertion_layer=0,
        timesteps=4,
        history=TrainingHistory(),
        final_old_accuracy=0.0,
        final_new_accuracy=0.0,
        final_overall_accuracy=0.0,
        latent_storage_bytes=0,
        latent_stored_frames=0,
        epoch_costs=[],
        prepare_cost=EpochCost(),
        network=None,
    )


def _scenario_result(*steps: NCLResult) -> ScenarioResult:
    sessions = len(steps) + 1
    return ScenarioResult(
        scenario="sequential",
        method="stub",
        steps=steps,
        step_names=tuple(f"step-{k}" for k in range(len(steps))),
        accuracy_matrix=np.zeros((sessions, sessions)),
        pretrain_accuracy=0.0,
    )


@pytest.fixture(scope="module")
def stream():
    preset = get_scale("ci")
    generator = SyntheticSHD(preset.shd, seed=preset.experiment.seed)
    exp = preset.experiment.replace(num_pretrain_classes=3)
    base_split = make_class_incremental(
        generator,
        exp.samples_per_class,
        exp.test_samples_per_class,
        num_pretrain_classes=3,
    )
    return exp, generator, pretrain(exp, base_split)


def _run(stream, method=Replay4NCL, scenario=STREAM, pretrained=None):
    exp, generator, default = stream
    return run_scenario(
        scenario,
        method,
        generator=generator,
        experiment=exp,
        pretrained=default if pretrained is None else pretrained,
    )


def _splits(stream, scenario=STREAM):
    exp, generator, _ = stream
    return [step.split for step in scenario.steps(generator, exp)]


class TestSequentialScenarioLayout:
    def test_step_class_layout(self, stream):
        splits = _splits(stream)
        assert splits[0].old_classes == (0, 1, 2)
        assert splits[0].new_classes == (3,)
        assert splits[1].old_classes == (0, 1, 2, 3)
        assert splits[1].new_classes == (4,)

    def test_old_pool_grows(self, stream):
        splits = _splits(stream)
        assert len(splits[1].pretrain_train) > len(splits[0].pretrain_train)

    def test_multi_class_steps_layout(self, stream):
        splits = _splits(
            stream,
            SequentialScenario(steps_count=2, classes_per_step=2, base_classes=1),
        )
        assert splits[0].old_classes == (0,)
        assert splits[0].new_classes == (1, 2)
        assert splits[1].old_classes == (0, 1, 2)
        assert splits[1].new_classes == (3, 4)

    def test_validation(self, stream):
        # Every non-positive extent fails loudly, as does a stream that
        # needs more classes than the generator has.
        _, generator, _ = stream
        num_classes = generator.config.num_classes
        for bad in (
            SequentialScenario(steps_count=1, base_classes=0),
            SequentialScenario(steps_count=1, base_classes=-1),
            SequentialScenario(steps_count=1, classes_per_step=0, base_classes=3),
        ):
            with pytest.raises(DataError, match="must be positive"):
                _splits(stream, bad)
        with pytest.raises(ConfigError, match="must be positive"):
            SequentialScenario(steps_count=0, base_classes=3)
        with pytest.raises(DataError, match=f"needs {num_classes + 1} classes"):
            _splits(
                stream, SequentialScenario(steps_count=2, base_classes=num_classes - 1)
            )

    def test_exact_class_count_fits(self, stream):
        _, generator, _ = stream
        num_classes = generator.config.num_classes
        exact = _splits(
            stream, SequentialScenario(steps_count=2, base_classes=num_classes - 2)
        )
        assert exact[-1].new_classes == (num_classes - 1,)


class TestChainedRun:
    @pytest.fixture(scope="class")
    def result(self, stream):
        return _run(stream)

    def test_two_steps(self, result):
        assert len(result.steps) == 2
        assert len(result.old_accuracy_trajectory) == 2

    def test_each_step_learns_its_class(self, result):
        # The ci budget is small; require progress, not perfection.
        assert result.new_accuracy_trajectory[0] >= 0.5

    def test_old_knowledge_survives_both_steps(self, result):
        assert result.old_accuracy_trajectory[-1] >= 0.4

    def test_networks_chain(self, result, stream):
        _, _, pretrained = stream
        # Step 2's network must differ from both the pre-trained one and
        # step 1's (training happened at each step).
        w_pre = pretrained.network.readout.w_ff.data
        w_one = result.steps[0].network.readout.w_ff.data
        w_two = result.steps[1].network.readout.w_ff.data
        assert not np.array_equal(w_pre, w_one)
        assert not np.array_equal(w_one, w_two)

    def test_each_step_starts_from_the_previous_network(self, stream):
        received = []

        class Recorder(Replay4NCL):
            def run(self, network, split, replay=None):
                received.append(network)
                return super().run(network, split, replay=replay)

        result = _run(stream, Recorder)
        assert received == [stream[2].network, result.steps[0].network]

    def test_describe(self, result):
        text = result.describe()
        assert "2 step(s)" in text and "step-1" in text


class TestErrorPaths:
    def test_rejects_networkless_method(self, stream):
        class NetworklessMethod(Replay4NCL):
            def run(self, network, split, replay=None):
                return _result_without_network()

        with pytest.raises(DataError, match="did not return"):
            _run(stream, NetworklessMethod)

    def test_accepts_pretrain_result(self, stream):
        # The PretrainResult is unwrapped to its network (the README
        # workflow passes one).
        _, _, pretrained = stream
        received = []

        class Recorder(Replay4NCL):
            def run(self, network, split, replay=None):
                received.append(network)
                result = _result_without_network()
                result.network = network
                return result

        _run(stream, Recorder, SequentialScenario(steps_count=1, base_classes=3))
        assert received == [pretrained.network]

    def test_trajectories_still_exposed_without_network(self):
        # The accuracy trajectories are index-only: they survive a
        # networkless step.
        result = _scenario_result(_result_without_network())
        assert result.old_accuracy_trajectory == (0.0,)
        assert result.new_accuracy_trajectory == (0.0,)
        assert result.store_root is None
