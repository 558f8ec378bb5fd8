"""Tests for the store report: the Fig. 12 model beside the shard bytes."""

import numpy as np
import pytest

from repro.replaystore import ReplayStore, latent_bytes


@pytest.fixture
def store(tmp_path):
    rng = np.random.default_rng(0)
    raster = (rng.random((24, 19, 16)) < 0.25).astype(np.float32)
    store = ReplayStore.create(
        tmp_path / "store",
        stored_frames=24,
        num_channels=16,
        generated_timesteps=24,
        shard_samples=6,
    )
    store.append(raster, rng.integers(0, 3, 19))
    return store


class TestStoreStats:
    def test_model_matches_geometry(self, store):
        stats = store.stats()
        assert stats.modelled_bytes == latent_bytes(24, 19, 16)
        assert stats.num_samples == 19
        assert stats.num_shards == 4

    def test_payload_never_beats_model_by_less_than_padding(self, store):
        # Per-shard codecs pick the smaller encoding, so the payload can
        # only undercut the bitmap model (modulo 1 B/shard bit padding
        # and the headers the model charges but the payload omits).
        stats = store.stats()
        assert stats.payload_bytes <= stats.modelled_bytes + stats.num_shards
        assert stats.payload_saving >= 0.0

    def test_disk_includes_format_overhead(self, store):
        stats = store.stats()
        assert stats.disk_bytes == store.disk_bytes()
        assert stats.format_overhead_bytes > 0
        assert stats.disk_bytes == stats.payload_bytes + stats.format_overhead_bytes

    def test_sparse_store_shows_saving(self, tmp_path):
        rng = np.random.default_rng(1)
        raster = (rng.random((24, 10, 16)) < 0.005).astype(np.float32)
        store = ReplayStore.create(
            tmp_path / "sparse",
            stored_frames=24,
            num_channels=16,
            generated_timesteps=24,
        )
        store.append(raster, np.zeros(10))
        # AER shards on near-empty rasters beat the bitmap model.
        assert store.stats().payload_saving > 0.5

    def test_empty_store_reports_zero(self, tmp_path):
        empty = ReplayStore.create(
            tmp_path / "empty",
            stored_frames=4,
            num_channels=4,
            generated_timesteps=4,
        )
        stats = empty.stats()
        assert (stats.num_samples, stats.modelled_bytes, stats.payload_bytes) == (0, 0, 0)
        assert stats.payload_saving == 0.0
