"""Tests for the synthetic SHD generator."""

import numpy as np
import pytest

from repro.data import SyntheticSHD, SyntheticSHDConfig
from repro.errors import ConfigError, DataError


@pytest.fixture(scope="module")
def generator():
    return SyntheticSHD(
        SyntheticSHDConfig(num_channels=64, num_classes=5, grid_steps=100), seed=7
    )


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = SyntheticSHDConfig()
        assert cfg.num_channels == 700 and cfg.num_classes == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_channels": 0},
            {"num_classes": 1},
            {"trajectories_per_class": 0},
            {"peak_rate": 0.0},
            {"background_rate": -1.0},
            {"duration": 0.0},
            {"channel_bandwidth": 0.6},
            {"num_anchors": 1},
            {"grid_steps": 5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SyntheticSHDConfig(**kwargs)


class TestDeterminism:
    def test_same_seed_same_events(self, generator):
        other = SyntheticSHD(generator.config, seed=7)
        a = generator.generate(1, 3)
        b = other.generate(1, 3)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.channels, b.channels)

    def test_different_samples_differ(self, generator):
        a = generator.generate(1, 0)
        b = generator.generate(1, 1)
        assert a.num_events != b.num_events or not np.array_equal(a.times, b.times)

    def test_different_seeds_differ(self, generator):
        other = SyntheticSHD(generator.config, seed=8)
        a = generator.generate(0, 0)
        b = other.generate(0, 0)
        assert not np.array_equal(a.times, b.times)

    def test_prototypes_deterministic(self, generator):
        other = SyntheticSHD(generator.config, seed=7)
        assert generator._prototypes == other._prototypes

    def test_anchors_shared_across_classes(self, generator):
        # Every trajectory starts and ends on the shared channel-anchor pool.
        anchors = set(np.round(generator._anchors, 6))
        for prototype in generator._prototypes:
            for traj in prototype:
                assert round(traj.start_channel, 6) in anchors
                assert round(traj.end_channel, 6) in anchors


class TestStatistics:
    def test_stream_shape(self, generator):
        s = generator.generate(0, 0)
        assert s.num_channels == 64
        assert s.duration == generator.config.duration

    def test_sparse_but_active(self, generator):
        s = generator.generate(0, 0)
        density = s.to_dense(100).mean()
        assert 0.005 < density < 0.4  # sparse like SHD, but not silent

    def test_intensity_field_nonnegative(self, generator):
        field = generator.intensity_field(0)
        assert field.min() >= generator.config.background_rate
        assert field.shape == (100, 64)

    def test_intensity_fields_differ_between_classes(self, generator):
        a = generator.intensity_field(0)
        b = generator.intensity_field(1)
        assert not np.allclose(a, b)

    def test_sample_variability_changes_field(self, generator):
        clean = generator.intensity_field(0)
        jittered = generator.intensity_field(0, rng=np.random.default_rng(0))
        assert not np.allclose(clean, jittered)

    def test_classes_temporally_separable(self, generator):
        # Rasters of different classes must differ far more across classes
        # than within a class (a weak separability sanity check).
        def mean_raster(c):
            rasters = [generator.generate(c, i).to_dense(50) for i in range(8)]
            return np.mean(rasters, axis=0)

        m0, m1 = mean_raster(0), mean_raster(1)
        between = np.abs(m0 - m1).sum()
        m0b = np.mean([generator.generate(0, 100 + i).to_dense(50) for i in range(8)], axis=0)
        within = np.abs(m0 - m0b).sum()
        assert between > 1.5 * within


class TestDatasetGeneration:
    def test_shapes_and_labels(self, generator):
        ds = generator.generate_dataset(4, split="train")
        assert len(ds) == 20
        assert ds.class_counts() == {c: 4 for c in range(5)}

    def test_class_filter(self, generator):
        ds = generator.generate_dataset(3, split="train", classes=[1, 3])
        assert ds.present_classes == [1, 3]

    def test_train_test_disjoint(self, generator):
        train = generator.generate_dataset(2, split="train")
        test = generator.generate_dataset(2, split="test")
        assert not np.array_equal(train.streams[0].times, test.streams[0].times)

    def test_rejects_bad_split(self, generator):
        with pytest.raises(DataError):
            generator.generate_dataset(2, split="validation")

    def test_rejects_bad_counts(self, generator):
        with pytest.raises(DataError):
            generator.generate_dataset(0)

    def test_rejects_bad_class(self, generator):
        with pytest.raises(DataError):
            generator.generate(99, 0)
        with pytest.raises(DataError):
            generator.generate_dataset(1, classes=[99])
