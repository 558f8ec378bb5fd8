"""Tests for DataLoader and raster transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    DataLoader,
    channel_dropout,
    drift_dataset,
    rebin_raster,
    time_jitter,
)
from repro.errors import DataError


@pytest.fixture
def data():
    rng = np.random.default_rng(0)
    inputs = (rng.random((10, 23, 6)) < 0.3).astype(np.float32)
    labels = rng.integers(0, 4, 23)
    return inputs, labels


class TestDataLoader:
    def test_batch_shapes(self, data):
        inputs, labels = data
        loader = DataLoader(inputs, labels, batch_size=8, shuffle=False)
        batches = list(loader)
        assert len(batches) == 3
        assert batches[0][0].shape == (10, 8, 6)
        assert batches[2][0].shape == (10, 7, 6)  # remainder batch

    def test_len(self, data):
        inputs, labels = data
        assert len(DataLoader(inputs, labels, batch_size=8)) == 3

    def test_covers_all_samples_once(self, data):
        inputs, labels = data
        loader = DataLoader(inputs, labels, batch_size=5, shuffle=True,
                            rng=np.random.default_rng(1))
        seen = np.concatenate([lbl for _, lbl in loader])
        assert sorted(seen.tolist()) == sorted(labels.tolist())

    def test_shuffle_changes_order(self, data):
        inputs, labels = np.arange(230).reshape(10, 23, 1).astype(np.float32), data[1]
        loader = DataLoader(inputs, labels, batch_size=23, shuffle=True,
                            rng=np.random.default_rng(2))
        first = next(iter(loader))[0]
        assert not np.array_equal(first, inputs)

    def test_no_shuffle_preserves_order(self, data):
        inputs, labels = data
        loader = DataLoader(inputs, labels, batch_size=23, shuffle=False)
        batch_inputs, batch_labels = next(iter(loader))
        np.testing.assert_array_equal(batch_inputs, inputs)
        np.testing.assert_array_equal(batch_labels, labels)

    def test_batches_follow_one_shuffled_order(self, data):
        # The minibatch schedule store-backed replay relies on: batch k is
        # columns [k*B, (k+1)*B) of one rng permutation, fancy-indexed.
        inputs, labels = data
        loader = DataLoader(inputs, labels, batch_size=5, shuffle=True,
                            rng=np.random.default_rng(4))
        order = np.arange(23)
        np.random.default_rng(4).shuffle(order)
        for k, (batch_inputs, batch_labels) in enumerate(loader):
            cols = order[5 * k : 5 * (k + 1)]
            np.testing.assert_array_equal(batch_inputs, inputs[:, cols, :])
            np.testing.assert_array_equal(batch_labels, labels[cols])

    def test_batches_are_contiguous_copies_of_the_fancy_index(self, data):
        # Time-major [T, B, C] in memory, as the stacked GEMMs read it.
        inputs, labels = data
        loader = DataLoader(inputs, labels, batch_size=5, shuffle=True,
                            rng=np.random.default_rng(4))
        order = np.arange(23)
        np.random.default_rng(4).shuffle(order)
        for k, (batch_inputs, _) in enumerate(loader):
            assert batch_inputs.flags.c_contiguous
            want = inputs[:, order[5 * k : 5 * (k + 1)], :]
            assert batch_inputs.dtype == want.dtype
            assert np.array_equal(batch_inputs, want)

    def test_objects_with_a_gather_method_are_not_sources(self, data):
        class Lazy:
            shape = (10, 23, 6)

            def gather(self, indices):
                raise AssertionError("the loader must not call gather")

        with pytest.raises(DataError, match=r"\[T, N, C\]"):
            DataLoader(Lazy(), data[1], batch_size=4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"inputs": np.zeros((10, 5)), "labels": np.zeros(5, dtype=int)},
            {"inputs": np.zeros((10, 5, 3)), "labels": np.zeros(4, dtype=int)},
            {"inputs": np.zeros((10, 5, 3)), "labels": np.zeros(5, dtype=int), "batch_size": 0},
        ],
    )
    def test_validation(self, kwargs):
        kwargs.setdefault("batch_size", 2)
        with pytest.raises(DataError):
            DataLoader(**kwargs)


class TestRebinRaster:
    def test_identity(self):
        raster = np.eye(4, dtype=np.float32)
        out = rebin_raster(raster, 4)
        np.testing.assert_array_equal(out, raster)
        assert out is not raster  # always a copy

    def test_downsample_or_merges(self):
        raster = np.zeros((4, 1), dtype=np.float32)
        raster[0] = raster[1] = 1.0
        out = rebin_raster(raster, 2)
        np.testing.assert_array_equal(out[:, 0], [1.0, 0.0])

    def test_paper_fig7_example(self):
        # Fig. 7: the compressed stream is the first frame of each pair.
        original = np.array([1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0],
                            dtype=np.float32)[:, None]
        # OR-rebin differs from Fig. 7's keep-first subsampling; both
        # halve the length.
        out = rebin_raster(original, 7)
        assert out.shape == (7, 1)

    def test_upsample_zero_stuffs(self):
        raster = np.array([[1.0], [1.0]], dtype=np.float32)
        out = rebin_raster(raster, 4)
        np.testing.assert_array_equal(out[:, 0], [1.0, 0.0, 1.0, 0.0])

    def test_validation(self):
        with pytest.raises(DataError):
            rebin_raster(np.zeros((4, 2)), 0)

    @given(
        timesteps=st.integers(min_value=1, max_value=50),
        new_timesteps=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_rebin_preserves_binarity_and_bounds(self, timesteps, new_timesteps):
        rng = np.random.default_rng(timesteps * 100 + new_timesteps)
        raster = (rng.random((timesteps, 3)) < 0.4).astype(np.float32)
        out = rebin_raster(raster, new_timesteps)
        assert out.shape == (new_timesteps, 3)
        assert set(np.unique(out)).issubset({0.0, 1.0})
        # OR-merge can only lose spikes when downsampling, never invent:
        assert out.sum() <= raster.sum()
        if new_timesteps >= timesteps:
            assert out.sum() == raster.sum()

    @given(timesteps=st.integers(min_value=2, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_downsample_channel_marginal_monotone(self, timesteps):
        # A channel with at least one spike keeps at least one after rebin.
        rng = np.random.default_rng(timesteps)
        raster = (rng.random((timesteps, 5)) < 0.3).astype(np.float32)
        out = rebin_raster(raster, max(1, timesteps // 2))
        active_before = raster.sum(axis=0) > 0
        active_after = out.sum(axis=0) > 0
        np.testing.assert_array_equal(active_before, active_after)


class TestAugmentations:
    def test_time_jitter_preserves_count_modulo_edges(self):
        raster = np.zeros((10, 2), dtype=np.float32)
        raster[5, 0] = 1.0
        out = time_jitter(raster, 2, np.random.default_rng(0))
        assert out.sum() == 1.0

    def test_time_jitter_zero_shift(self):
        raster = np.ones((4, 2), dtype=np.float32)
        out = time_jitter(raster, 0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, raster)

    def test_time_jitter_validation(self):
        with pytest.raises(DataError):
            time_jitter(np.zeros((4, 2)), -1, np.random.default_rng(0))

    def test_channel_dropout_silences_whole_channels(self):
        raster = np.ones((6, 50), dtype=np.float32)
        out = channel_dropout(raster, 0.5, np.random.default_rng(0))
        col_sums = out.sum(axis=0)
        assert set(np.unique(col_sums)).issubset({0.0, 6.0})
        assert 0.0 in col_sums  # with p=.5 over 50 channels, some dropped

    def test_channel_dropout_validation(self):
        with pytest.raises(DataError):
            channel_dropout(np.zeros((4, 2)), 1.0, np.random.default_rng(0))


class TestDriftDataset:
    @pytest.fixture
    def dataset(self):
        from repro.data import SyntheticSHD, SyntheticSHDConfig

        generator = SyntheticSHD(
            SyntheticSHDConfig(
                num_channels=16, num_classes=3, grid_steps=20, peak_rate=90.0
            ),
            seed=0,
        )
        return generator.generate_dataset(3, split="train")

    def test_labels_and_geometry_preserved(self, dataset):
        drifted = drift_dataset(
            dataset,
            np.random.default_rng(0),
            grid_steps=20,
            max_shift=2,
            dropout_p=0.2,
        )
        np.testing.assert_array_equal(drifted.labels, dataset.labels)
        assert len(drifted) == len(dataset)
        assert drifted.streams[0].num_channels == dataset.streams[0].num_channels
        assert drifted.num_classes == dataset.num_classes

    def test_identity_when_no_drift(self, dataset):
        # No jitter, no dropout, no blur: the raster round-trip through
        # EventStream.from_dense is exact at the grid resolution.
        same = drift_dataset(dataset, np.random.default_rng(0), grid_steps=20)
        np.testing.assert_array_equal(same.to_dense(20), dataset.to_dense(20))

    def test_drift_changes_rasters_deterministically(self, dataset):
        kwargs = dict(grid_steps=20, max_shift=3, dropout_p=0.3, blur_steps=10)
        a = drift_dataset(dataset, np.random.default_rng(7), **kwargs)
        b = drift_dataset(dataset, np.random.default_rng(7), **kwargs)
        c = drift_dataset(dataset, np.random.default_rng(8), **kwargs)
        np.testing.assert_array_equal(a.to_dense(20), b.to_dense(20))
        assert not np.array_equal(a.to_dense(20), dataset.to_dense(20))
        assert not np.array_equal(a.to_dense(20), c.to_dense(20))

    def test_blur_merges_events(self, dataset):
        blurred = drift_dataset(
            dataset, np.random.default_rng(0), grid_steps=20, blur_steps=5
        )
        # OR-reduced rebinning can only keep or merge spikes.
        assert blurred.to_dense(20).sum() <= dataset.to_dense(20).sum()

    def test_validation(self, dataset):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError, match="grid_steps"):
            drift_dataset(dataset, rng, grid_steps=0)
        with pytest.raises(DataError, match="blur_steps"):
            drift_dataset(dataset, rng, grid_steps=20, blur_steps=21)
        with pytest.raises(DataError, match="max_shift"):
            drift_dataset(dataset, rng, grid_steps=20, max_shift=-1)
        with pytest.raises(DataError):
            drift_dataset(dataset, rng, grid_steps=20, dropout_p=1.0)
