"""Tests for SpikeDataset and the class-incremental split."""

import numpy as np
import pytest

from repro.data import (
    EventStream,
    SpikeDataset,
    SyntheticSHD,
    SyntheticSHDConfig,
    make_class_incremental,
)
from repro.errors import DataError


@pytest.fixture(scope="module")
def generator():
    return SyntheticSHD(
        SyntheticSHDConfig(num_channels=32, num_classes=4, grid_steps=50), seed=3
    )


@pytest.fixture(scope="module")
def dataset(generator):
    return generator.generate_dataset(5, split="train")


class TestSpikeDataset:
    def test_len_and_counts(self, dataset):
        assert len(dataset) == 20
        assert dataset.class_counts() == {0: 5, 1: 5, 2: 5, 3: 5}

    def test_label_validation(self):
        stream = EventStream(np.array([0.1]), np.array([0]), 4, 1.0)
        with pytest.raises(DataError):
            SpikeDataset(streams=[stream], labels=np.array([5]), num_classes=4)

    def test_length_mismatch(self):
        stream = EventStream(np.array([0.1]), np.array([0]), 4, 1.0)
        with pytest.raises(DataError):
            SpikeDataset(streams=[stream], labels=np.array([0, 1]), num_classes=4)

    def test_to_dense_shape(self, dataset):
        dense = dataset.to_dense(25)
        assert dense.shape == (25, 20, 32)

    def test_to_dense_cached(self, dataset):
        assert dataset.to_dense(25) is dataset.to_dense(25)

    def test_subset(self, dataset):
        sub = dataset.subset([0, 5, 10])
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.labels, dataset.labels[[0, 5, 10]])

    def test_sample_fraction_stratified(self, dataset):
        rng = np.random.default_rng(0)
        sub = dataset.sample_fraction(0.4, rng)
        assert sub.class_counts() == {0: 2, 1: 2, 2: 2, 3: 2}

    def test_sample_fraction_keeps_every_class(self, dataset):
        rng = np.random.default_rng(0)
        sub = dataset.sample_fraction(0.01, rng)
        assert sub.present_classes == [0, 1, 2, 3]  # at least 1 each

    def test_sample_fraction_validation(self, dataset):
        with pytest.raises(DataError):
            dataset.sample_fraction(0.0, np.random.default_rng(0))

    def test_concat(self, dataset):
        merged = dataset.concat(dataset.subset([0]))
        assert len(merged) == 21

    def test_concat_class_mismatch(self, dataset):
        other = SpikeDataset(
            streams=dataset.streams[:1], labels=dataset.labels[:1], num_classes=9
        )
        with pytest.raises(DataError):
            dataset.concat(other)


class TestClassIncremental:
    def test_default_split_is_n_minus_one(self, generator):
        split = make_class_incremental(generator, 4, 2)
        assert split.old_classes == (0, 1, 2)
        assert split.new_classes == (3,)

    def test_sizes(self, generator):
        split = make_class_incremental(generator, 4, 2)
        assert len(split.pretrain_train) == 12
        assert len(split.pretrain_test) == 6
        assert len(split.new_train) == 4
        assert len(split.new_test) == 2

    def test_custom_pretrain_count(self, generator):
        split = make_class_incremental(generator, 2, 1, num_pretrain_classes=2)
        assert split.old_classes == (0, 1)
        assert split.new_classes == (2, 3)

    def test_label_space_preserved(self, generator):
        # Labels stay global; no remapping.
        split = make_class_incremental(generator, 2, 1)
        assert split.new_train.labels.min() == 3
        assert split.pretrain_train.num_classes == 4

    def test_invalid_pretrain_count(self, generator):
        with pytest.raises(DataError):
            make_class_incremental(generator, 2, 1, num_pretrain_classes=0)
        with pytest.raises(DataError):
            make_class_incremental(generator, 2, 1, num_pretrain_classes=4)

    def test_describe_mentions_counts(self, generator):
        split = make_class_incremental(generator, 4, 2)
        text = split.describe()
        assert "3 old classes" in text and "12 train" in text


def assert_same_dataset(got, want):
    np.testing.assert_array_equal(got.labels, want.labels)
    assert len(got.streams) == len(want.streams)
    for a, b in zip(got.streams, want.streams):
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.channels, b.channels)


def entry_point_splits(entry, generator):
    """The splits one builder of class-incremental splits yields."""
    from repro.config import ExperimentConfig
    from repro.scenario import SequentialScenario, StreamingScenario

    if entry == "make_class_incremental":
        return [make_class_incremental(generator, 4, 2, num_pretrain_classes=2)]
    experiment = ExperimentConfig(samples_per_class=4, test_samples_per_class=2)
    scenario = (
        SequentialScenario(steps_count=2)
        if entry == "sequential"
        else StreamingScenario(tasks=2, chunks_per_task=2)
    )
    return [step.split for step in scenario.steps(generator, experiment)]


@pytest.mark.parametrize("entry", ["make_class_incremental", "sequential", "streaming"])
def test_splits_equal_direct_generation(entry):
    """Every split builder draws exactly what generate_dataset draws."""
    config = SyntheticSHDConfig(num_channels=16, num_classes=4, grid_steps=20)
    splits = entry_point_splits(entry, SyntheticSHD(config, seed=5))
    reference = SyntheticSHD(config, seed=5)
    expected_classes = {
        "make_class_incremental": [((0, 1), (2, 3))],
        "sequential": [((0, 1), (2,)), ((0, 1, 2), (3,))],
        "streaming": [((0, 1), (2,))] * 2 + [((0, 1, 2), (3,))] * 2,
    }[entry]
    assert [(s.old_classes, s.new_classes) for s in splits] == expected_classes

    new_train_seen = {}
    for split in splits:
        old, new = list(split.old_classes), list(split.new_classes)
        assert_same_dataset(
            split.pretrain_train, reference.generate_dataset(4, split="train", classes=old)
        )
        assert_same_dataset(
            split.pretrain_test, reference.generate_dataset(2, split="test", classes=old)
        )
        assert_same_dataset(
            split.new_test, reference.generate_dataset(2, split="test", classes=new)
        )
        # A streaming task arrives in chunks; its chunks concatenate to
        # the task's whole training set.
        seen = new_train_seen.get(split.new_classes)
        new_train_seen[split.new_classes] = (
            split.new_train if seen is None else seen.concat(split.new_train)
        )
    for new, new_train in new_train_seen.items():
        assert_same_dataset(
            new_train, reference.generate_dataset(4, split="train", classes=list(new))
        )
