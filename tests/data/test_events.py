"""Tests for the EventStream address-event representation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import EventStream
from repro.errors import DataError


def make_stream(times, channels, num_channels=10, duration=1.0):
    return EventStream(
        times=np.asarray(times, dtype=float),
        channels=np.asarray(channels, dtype=int),
        num_channels=num_channels,
        duration=duration,
    )


class TestValidation:
    def test_basic_construction(self):
        s = make_stream([0.1, 0.5], [2, 7])
        assert s.num_events == 2

    def test_mismatched_lengths(self):
        with pytest.raises(DataError):
            make_stream([0.1, 0.2], [1])

    def test_time_out_of_range(self):
        with pytest.raises(DataError):
            make_stream([1.0], [0])  # duration is exclusive

    def test_negative_time(self):
        with pytest.raises(DataError):
            make_stream([-0.1], [0])

    def test_channel_out_of_range(self):
        with pytest.raises(DataError):
            make_stream([0.1], [10])

    def test_bad_duration(self):
        with pytest.raises(DataError):
            make_stream([0.1], [0], duration=0.0)

    def test_bad_num_channels(self):
        with pytest.raises(DataError):
            make_stream([], [], num_channels=0)

    def test_empty_stream_ok(self):
        s = make_stream([], [])
        assert s.num_events == 0
        assert s.mean_rate() == 0.0


class TestToDense:
    def test_shape(self):
        raster = make_stream([0.1], [3]).to_dense(20)
        assert raster.shape == (20, 10)

    def test_event_placement(self):
        raster = make_stream([0.55], [3]).to_dense(10)
        assert raster[5, 3] == 1.0
        assert raster.sum() == 1.0

    def test_multiple_events_same_cell_clip(self):
        raster = make_stream([0.51, 0.52], [3, 3]).to_dense(10)
        assert raster[5, 3] == 1.0
        assert raster.sum() == 1.0

    def test_coarser_binning_merges(self):
        s = make_stream([0.12, 0.18], [3, 3])
        assert s.to_dense(100).sum() == 2.0
        assert s.to_dense(10).sum() == 1.0  # both fall into bin 1

    def test_invalid_timesteps(self):
        with pytest.raises(DataError):
            make_stream([0.1], [0]).to_dense(0)

    @given(
        timesteps=st.integers(min_value=1, max_value=64),
        n_events=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_dense_spike_count_never_exceeds_events(self, timesteps, n_events):
        rng = np.random.default_rng(timesteps * 1000 + n_events)
        times = rng.random(n_events) * 0.999
        channels = rng.integers(0, 10, n_events)
        s = make_stream(times, channels)
        raster = s.to_dense(timesteps)
        assert raster.sum() <= n_events
        assert set(np.unique(raster)).issubset({0.0, 1.0})


class TestRoundTrip:
    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        raster = (rng.random((16, 10)) < 0.2).astype(np.float32)
        stream = EventStream.from_dense(raster)
        np.testing.assert_array_equal(stream.to_dense(16), raster)

    def test_from_dense_rejects_bad_rank(self):
        with pytest.raises(DataError):
            EventStream.from_dense(np.zeros(5))

