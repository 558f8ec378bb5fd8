"""Tests for ReplayStream: gather, materialize, iteration, staleness."""

import numpy as np
import pytest

from repro import obs
from repro.errors import StoreError
from repro.replaystore import ReplayStore, ReplayStream


def decoded_shards(call) -> float:
    """``store.shards_decoded`` recorded while running ``call()``."""
    recorder = obs.Recorder()
    with obs.use_recorder(recorder):
        call()
    counters = {e.name: e.total for e in recorder.metrics()}
    return counters.get("store.shards_decoded", 0.0)


@pytest.fixture
def raster():
    rng = np.random.default_rng(42)
    return (rng.random((12, 30, 9)) < 0.15).astype(np.float32)


@pytest.fixture
def store(tmp_path, raster):
    store = ReplayStore.create(
        tmp_path / "store",
        stored_frames=12,
        num_channels=9,
        generated_timesteps=12,
        shard_samples=7,
    )
    store.append(raster, np.arange(30) % 5)
    return store


@pytest.fixture
def subsampled_store(tmp_path, raster):
    # Factor-2 store: 12 stored frames expand to 24 on replay.
    store = ReplayStore.create(
        tmp_path / "sub",
        stored_frames=12,
        num_channels=9,
        generated_timesteps=24,
        codec_factor=2,
        shard_samples=7,
    )
    store.append(raster, np.arange(30) % 5)
    return store


class TestReplayStream:
    def test_gather_matches_dense_indexing(self, store, raster):
        stream = ReplayStream(store)
        idx = np.array([29, 0, 13, 13, 6])  # unsorted, duplicated
        np.testing.assert_array_equal(stream.gather(idx), raster[:, idx, :])

    def test_materialize(self, store, raster):
        np.testing.assert_array_equal(ReplayStream(store).materialize(), raster)

    def test_shape_and_labels(self, store):
        stream = ReplayStream(store)
        assert stream.shape == (12, 30, 9)
        np.testing.assert_array_equal(stream.labels, np.arange(30) % 5)

    def test_iter_yields_shards(self, store, raster):
        chunks = list(ReplayStream(store))
        assert [r.shape[1] for r, _ in chunks] == [7, 7, 7, 7, 2]
        np.testing.assert_array_equal(
            np.concatenate([r for r, _ in chunks], axis=1), raster
        )

    @pytest.mark.parametrize(
        "indices,touched",
        [
            (np.arange(14), 2),  # shards 0-1, every column
            (np.array([29, 0, 13, 13, 6]), 3),  # shards 4, 0, 1 with repeats
            (np.array([15]), 1),
            (np.array([], dtype=np.int64), 0),
        ],
    )
    def test_each_touched_shard_decodes_once_per_gather(self, store, indices, touched):
        stream = ReplayStream(store)
        # Repeating a gather repeats its decodes: nothing is cached.
        for calls in (1, 3):
            assert decoded_shards(
                lambda: [stream.gather(indices) for _ in range(calls)]
            ) == calls * touched

    def test_materialize_and_iteration_decode_each_shard_once(self, store):
        stream = ReplayStream(store)
        assert decoded_shards(stream.materialize) == store.num_shards
        assert decoded_shards(lambda: list(stream)) == store.num_shards

    def test_decompressed_reads_decode_each_shard_once(self, subsampled_store):
        stream = ReplayStream(subsampled_store, decompress=True)
        assert decoded_shards(stream.materialize) == subsampled_store.num_shards
        assert decoded_shards(lambda: stream.gather(np.array([3, 8, 3]))) == 2

    def test_results_are_independent_arrays(self, store, raster):
        stream = ReplayStream(store)
        first = stream.materialize()
        first[:] = 1.0
        np.testing.assert_array_equal(stream.materialize(), raster)

    def test_decompressed_gather_matches_dense_indexing(self, subsampled_store, raster):
        from repro.compression import TemporalSubsampleCodec

        expected = TemporalSubsampleCodec(2).decompress(raster, 24)
        idx = np.array([29, 0, 13, 13, 6])
        stream = ReplayStream(subsampled_store, decompress=True)
        np.testing.assert_array_equal(stream.gather(idx), expected[:, idx, :])

    def test_iteration_labels_follow_storage_order(self, store):
        stream = ReplayStream(store)
        labels = [shard_labels for _, shard_labels in stream]
        assert all(chunk.dtype == np.int64 for chunk in labels)
        np.testing.assert_array_equal(np.concatenate(labels), stream.labels)

    def test_empty_store_reads_nothing(self, tmp_path):
        store = ReplayStore.create(
            tmp_path / "empty", stored_frames=12, num_channels=9,
            generated_timesteps=12,
        )
        stream = ReplayStream(store)
        assert decoded_shards(stream.materialize) == 0
        assert stream.materialize().shape == (12, 0, 9)
        assert list(stream) == []

    def test_materialize_goes_through_gather(self, store, raster, monkeypatch):
        # Instrumentation that wraps ``ReplayStream.gather`` must see the
        # read-once materialization the store-backed NCL path performs.
        calls = []
        gather = ReplayStream.gather

        def counting_gather(self, indices):
            calls.append(np.asarray(indices).copy())
            return gather(self, indices)

        monkeypatch.setattr(ReplayStream, "gather", counting_gather)
        np.testing.assert_array_equal(ReplayStream(store).materialize(), raster)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.arange(30))

    def test_each_gather_is_one_span(self, store):
        stream = ReplayStream(store)
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            stream.gather(np.array([29, 0, 13, 13, 6]))
            stream.materialize()
        spans = [s for s in recorder.spans() if s.name == "store.gather"]
        assert [(s.attrs["samples"], s.attrs["shards"]) for s in spans] == [
            (5, 3),
            (30, store.num_shards),
        ]

    def test_decompress_zero_stuffs(self, subsampled_store, raster):
        from repro.compression import TemporalSubsampleCodec

        stream = ReplayStream(subsampled_store, decompress=True)
        assert stream.shape == (24, 30, 9)
        expected = TemporalSubsampleCodec(2).decompress(raster, 24)
        np.testing.assert_array_equal(stream.materialize(), expected)

    def test_factor_requires_decompress(self, subsampled_store):
        with pytest.raises(StoreError, match="without decompression"):
            ReplayStream(subsampled_store, decompress=False)

    def test_gather_validation(self, store):
        stream = ReplayStream(store)
        with pytest.raises(StoreError, match="out of range"):
            stream.gather(np.array([30]))
        with pytest.raises(StoreError, match="1-D"):
            stream.gather(np.zeros((2, 2), dtype=np.int64))

    def test_stale_after_filter(self, store, raster):
        stream = ReplayStream(store)
        stream.gather(np.arange(5))
        store.filter(np.arange(1, 30))
        with pytest.raises(StoreError, match="mutated"):
            stream.gather(np.arange(5))
        # A fresh stream over the filtered store serves correctly.
        np.testing.assert_array_equal(
            ReplayStream(store).materialize(), raster[:, 1:, :]
        )

    def test_mutation_between_shard_reads_raises(self, store, raster, monkeypatch):
        # Nothing is cached, so each shard read re-checks the snapshot: a
        # mutation landing mid-gather fails the next read, never mixes
        # two snapshots' bytes into one result.
        stream = ReplayStream(store)
        read_shard = store.read_shard

        def read_then_mutate(shard_id):
            result = read_shard(shard_id)
            if shard_id == 0:
                ReplayStore.open(store.root).append(raster[:, :2, :], np.zeros(2))
            return result

        monkeypatch.setattr(store, "read_shard", read_then_mutate)
        with pytest.raises(StoreError, match="mutated"):
            stream.gather(np.array([0, 8]))

    def test_stale_after_append(self, store, raster):
        stream = ReplayStream(store)
        store.append(raster[:, :2, :], np.zeros(2))
        with pytest.raises(StoreError, match="mutated"):
            stream.gather(np.array([0]))
        with pytest.raises(StoreError, match="mutated"):
            stream.labels
        with pytest.raises(StoreError, match="mutated"):
            list(stream)


class TestPrefetchingStreamName:
    """The retired prefetch wrapper survives only as an importable name."""

    def test_is_a_plain_stream_outside_the_public_api(self, store, raster):
        import repro.replaystore as replaystore
        from repro.replaystore.prefetch import PrefetchingStream

        assert issubclass(PrefetchingStream, ReplayStream)
        assert "PrefetchingStream" not in replaystore.__all__
        assert not hasattr(replaystore, "prefetch_enabled")
        idx = np.array([29, 0, 13, 13, 6])
        np.testing.assert_array_equal(
            PrefetchingStream(store).gather(idx), raster[:, idx, :]
        )

    @pytest.mark.parametrize("decompress", [False, True])
    def test_reads_match_a_plain_stream(self, store, subsampled_store, decompress):
        from repro.replaystore.prefetch import PrefetchingStream

        source = subsampled_store if decompress else store
        plain = ReplayStream(source, decompress=decompress)
        named = PrefetchingStream(source, decompress=decompress)
        assert named.shape == plain.shape
        np.testing.assert_array_equal(named.materialize(), plain.materialize())
        for (r_named, l_named), (r_plain, l_plain) in zip(named, plain, strict=True):
            np.testing.assert_array_equal(r_named, r_plain)
            np.testing.assert_array_equal(l_named, l_plain)
        # No cache came back with the name: one decode per shard per call.
        assert decoded_shards(named.materialize) == source.num_shards
