"""`SyntheticSHD` draws each recording once and reuses it afterwards.

A recording depends only on ``(seed, class, sample)``, so a generator
keeps every stream it has drawn and returns it again on later requests.
These tests check the contract that makes the memo safe: memoized
streams are bitwise-equal to fresh draws in any request order, they are
read-only, and scenario steps, resumes and shared-pretraining runs stop
re-synthesizing their data.
"""

from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.core.pipeline import pretrain
from repro.data import SyntheticSHD, SyntheticSHDConfig
from repro.data.events import EventStream
from repro.eval.scale import get_scale
from repro.scenario import SequentialScenario, get, run_scenario

CONFIG = SyntheticSHDConfig(num_channels=32, num_classes=4, grid_steps=40)


def assert_datasets_bitwise_equal(a, b):
    np.testing.assert_array_equal(a.labels, b.labels)
    assert len(a.streams) == len(b.streams)
    for x, y in zip(a.streams, b.streams):
        assert x.times.tobytes() == y.times.tobytes()
        assert x.channels.tobytes() == y.channels.tobytes()
        assert x.times.dtype == y.times.dtype
        assert x.channels.dtype == y.channels.dtype


def count_draws(generator: SyntheticSHD) -> Counter:
    """Count ``(class, sample)`` keys this generator synthesizes from now on."""
    draws: Counter = Counter()
    draw = generator._draw

    def counting(class_id, sample_id):
        draws[(class_id, sample_id)] += 1
        return draw(class_id, sample_id)

    generator._draw = counting
    return draws


def small_experiment():
    """ci-scale data with one epoch per phase (draws do not depend on epochs)."""
    preset = get_scale("ci")
    experiment = preset.experiment.replace(
        pretrain=preset.experiment.pretrain.replace(epochs=1),
        ncl=preset.experiment.ncl.replace(epochs=1),
    )
    return SyntheticSHD(preset.shd, seed=experiment.seed), experiment


class TestBitwiseEquality:
    def test_permuted_request_orders_match_a_fresh_generator(self):
        memoized = SyntheticSHD(CONFIG, seed=3)
        # Test split first, classes reversed, then repeated requests.
        memoized.generate_dataset(2, split="test", classes=[3, 2, 1, 0])
        memoized.generate_dataset(3, split="train", classes=[2, 0])
        memoized.generate_dataset(3, split="train", classes=[2, 0])
        memoized.generate(1, 10_001)
        for split, n in (("train", 3), ("test", 2)):
            fresh = SyntheticSHD(CONFIG, seed=3).generate_dataset(n, split=split)
            assert_datasets_bitwise_equal(
                memoized.generate_dataset(n, split=split), fresh
            )

    def test_repeated_request_returns_the_same_stream(self):
        generator = SyntheticSHD(CONFIG, seed=3)
        assert generator.generate(2, 5) is generator.generate(2, 5)

    def test_memo_is_per_instance(self):
        a = SyntheticSHD(CONFIG, seed=3)
        b = SyntheticSHD(CONFIG, seed=3)
        assert a.generate(0, 0) is not b.generate(0, 0)
        assert SyntheticSHD(CONFIG, seed=4).generate(0, 0).times.tobytes() != (
            a.generate(0, 0).times.tobytes()
        )


class TestReadOnly:
    def test_writing_into_a_shared_recording_raises(self):
        generator = SyntheticSHD(CONFIG, seed=3)
        stream = generator.generate(1, 0)
        before = stream.times.copy()
        with pytest.raises(ValueError):
            stream.times[0] = 0.0
        with pytest.raises(ValueError):
            stream.channels[0] = 0
        # The next split sees the recording as drawn.
        again = generator.generate_dataset(1, classes=[1]).streams[0]
        np.testing.assert_array_equal(again.times, before)

    def test_user_arrays_stay_writeable(self):
        times = np.array([0.1, 0.5])
        channels = np.array([0, 3])
        stream = EventStream(times=times, channels=channels, num_channels=4, duration=1.0)
        assert stream.times.flags.writeable and stream.channels.flags.writeable
        assert times.flags.writeable and channels.flags.writeable


class TestRecordingsCounter:
    def test_drawn_and_memo_requests_are_counted(self):
        generator = SyntheticSHD(CONFIG, seed=3)
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            generator.generate_dataset(2, classes=[0, 1])
            generator.generate_dataset(2, classes=[1, 2])
        totals = {
            dict(m.tags)["source"]: m.total
            for m in recorder.metrics()
            if m.name == "data.recordings"
        }
        assert totals == {"drawn": 6.0, "memo": 2.0}


class TestScenarioReuse:
    def test_sequential_run_draws_each_recording_once(self):
        generator, experiment = small_experiment()
        draws = count_draws(generator)
        run_scenario(
            SequentialScenario(steps_count=3),
            generator=generator,
            experiment=experiment,
        )
        classes = range(generator.config.num_classes)
        train = range(experiment.samples_per_class)
        test = range(10_000, 10_000 + experiment.test_samples_per_class)
        expected = {(c, s) for c in classes for s in [*train, *test]}
        assert set(draws) == expected
        assert set(draws.values()) == {1}

    def test_same_process_resume_draws_nothing_new(self, tmp_path):
        generator, experiment = small_experiment()
        common = dict(
            generator=generator, experiment=experiment, checkpoint=tmp_path / "ckpt"
        )
        scenario = SequentialScenario(steps_count=3)
        run_scenario(scenario, max_steps=2, **common)
        draws = count_draws(generator)
        resumed = run_scenario(scenario, resume=True, **common)
        assert len(resumed.steps) == 3
        # Only the step the stopped run never reached is new.
        new_class = generator.config.num_classes - 1
        assert {c for c, _ in draws} == {new_class}
        assert set(draws.values()) == {1}

    def test_resume_of_a_finished_run_draws_nothing(self, tmp_path):
        generator, experiment = small_experiment()
        common = dict(
            generator=generator, experiment=experiment, checkpoint=tmp_path / "ckpt"
        )
        scenario = SequentialScenario(steps_count=2)
        run_scenario(scenario, **common)
        draws = count_draws(generator)
        run_scenario(scenario, resume=True, **common)
        assert not draws

    def test_shared_pretraining_draws_the_base_split_once(self):
        generator, experiment = small_experiment()
        draws = count_draws(generator)
        scenario = get("single-step")
        first = next(iter(scenario.steps(generator, experiment)))
        drawn_for_pretraining = dict(draws)
        pretrained = pretrain(experiment, first.split)
        for method in ("replay4ncl", "spikinglr"):
            run_scenario(
                scenario,
                method,
                generator=generator,
                experiment=experiment,
                pretrained=pretrained,
            )
        assert dict(draws) == drawn_for_pretraining
        assert set(draws.values()) == {1}
