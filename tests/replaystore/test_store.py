"""Tests for ReplayStore create/open/append/read/stats/compact."""

import json

import numpy as np
import pytest

from repro.errors import StoreError
from repro.replaystore import ReplayStore
from repro.replaystore.store import INDEX_NAME, LOCK_NAME, _shard_name


@pytest.fixture
def raster():
    rng = np.random.default_rng(0)
    return (rng.random((16, 23, 12)) < 0.2).astype(np.float32)


@pytest.fixture
def labels():
    return np.random.default_rng(1).integers(0, 4, 23)


@pytest.fixture
def store(tmp_path, raster, labels):
    store = ReplayStore.create(
        tmp_path / "store",
        stored_frames=16,
        num_channels=12,
        generated_timesteps=16,
        shard_samples=8,
    )
    store.append(raster, labels)
    return store


class TestLifecycle:
    def test_append_chunks_into_shards(self, store):
        assert store.num_shards == 3  # 8 + 8 + 7
        assert store.num_samples == 23
        assert [s.num_samples for s in store.shards] == [8, 8, 7]

    def test_refuses_to_clobber(self, store):
        with pytest.raises(StoreError, match="already exists"):
            ReplayStore.create(
                store.root, stored_frames=16, num_channels=12, generated_timesteps=16
            )

    def test_overwrite_clears_old_shards(self, store, raster, labels):
        fresh = ReplayStore.create(
            store.root,
            stored_frames=16,
            num_channels=12,
            generated_timesteps=16,
            overwrite=True,
        )
        assert fresh.num_samples == 0
        assert not list(fresh.root.glob("shard-*.bin"))

    def test_open_roundtrips_index(self, store, raster, labels):
        reopened = ReplayStore.open(store.root)
        assert reopened.num_samples == 23
        assert reopened.meta == store.meta
        np.testing.assert_array_equal(reopened.labels, labels)
        decoded, shard_labels = reopened.read_shard(2)
        np.testing.assert_array_equal(decoded, raster[:, 16:, :])
        np.testing.assert_array_equal(shard_labels, labels[16:])

    def test_open_missing_is_clean_error(self, tmp_path):
        with pytest.raises(StoreError, match="no replay store"):
            ReplayStore.open(tmp_path / "nope")

    def test_open_corrupt_index(self, store):
        (store.root / INDEX_NAME).write_text("{not json")
        with pytest.raises(StoreError, match="corrupt"):
            ReplayStore.open(store.root)

    def test_open_bad_version(self, store):
        payload = json.loads((store.root / INDEX_NAME).read_text())
        payload["version"] = 99
        (store.root / INDEX_NAME).write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="version"):
            ReplayStore.open(store.root)

    def test_open_malformed_index_keys(self, store):
        payload = json.loads((store.root / INDEX_NAME).read_text())
        del payload["meta"]["stored_frames"]
        payload["meta"]["surprise"] = 1
        (store.root / INDEX_NAME).write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="malformed"):
            ReplayStore.open(store.root)


class TestValidation:
    def test_append_geometry_checked(self, store):
        with pytest.raises(StoreError, match="frames"):
            store.append(np.zeros((8, 2, 12), dtype=np.float32), np.zeros(2))
        with pytest.raises(StoreError, match="channels"):
            store.append(np.zeros((16, 2, 5), dtype=np.float32), np.zeros(2))
        with pytest.raises(StoreError, match="labels"):
            store.append(np.zeros((16, 2, 12), dtype=np.float32), np.zeros(3))

    def test_read_shard_range(self, store):
        with pytest.raises(StoreError, match="out of range"):
            store.read_shard(5)

    def test_read_missing_file(self, store):
        (store.root / store.shards[0].file).unlink()
        with pytest.raises(StoreError, match="missing"):
            store.read_shard(0)

    def test_index_disagreement_detected(self, store):
        store.shards[0].labels[0] += 1
        with pytest.raises(StoreError, match="disagrees"):
            store.read_shard(0)


class TestAccounting:
    def test_payload_matches_shard_files(self, store):
        # Index accounting vs the real files: payload + header + labels.
        for shard in store.shards:
            size = (store.root / shard.file).stat().st_size
            assert size == shard.payload_offset + shard.payload_bytes

    def test_disk_bytes_counts_everything(self, store):
        shard_bytes = sum(
            (store.root / s.file).stat().st_size for s in store.shards
        )
        index_bytes = (store.root / INDEX_NAME).stat().st_size
        assert store.disk_bytes() == shard_bytes + index_bytes

    def test_stats(self, store, labels):
        stats = store.stats()
        assert stats.num_samples == 23
        assert stats.num_shards == 3
        assert sum(stats.codec_shards.values()) == 3
        values, counts = np.unique(labels, return_counts=True)
        assert stats.class_counts == dict(
            zip(values.tolist(), counts.tolist())
        )
        assert stats.bytes_per_sample > 0


class TestCompact:
    def test_retargets_occupancy(self, store, raster, labels):
        assert store.compact(shard_samples=10) == 3  # 10 + 10 + 3
        assert [s.num_samples for s in store.shards] == [10, 10, 3]
        assert store.meta.shard_samples == 10
        np.testing.assert_array_equal(store.labels, labels)

    def test_content_preserved(self, store, raster, tmp_path):
        store.compact(shard_samples=5)
        decoded = np.concatenate(
            [store.read_shard(i)[0] for i in range(store.num_shards)], axis=1
        )
        np.testing.assert_array_equal(decoded, raster)

    def test_persists_across_reopen(self, store, raster):
        store.compact(shard_samples=23)
        reopened = ReplayStore.open(store.root)
        assert reopened.num_shards == 1
        np.testing.assert_array_equal(reopened.read_shard(0)[0], raster)

    def test_no_stale_files(self, store):
        store.compact(shard_samples=23)
        files = sorted(p.name for p in store.root.glob("*") if p.is_file())
        # New generation's files replace the old ones; no tmp leftovers.
        # (The lock file is permanent store infrastructure, not residue.)
        assert files == [INDEX_NAME, LOCK_NAME, "shard-g001-00000.bin"]
        assert store.generation == 1

    def test_generations_never_collide(self, store, raster, labels):
        # compact -> append -> compact again: every rewrite lands under
        # fresh names, so an interrupted swap can never clobber files
        # the live index still references.
        store.compact(shard_samples=10)
        store.append(raster[:, :3, :], labels[:3])
        assert store.compact(shard_samples=13) == 2
        reopened = ReplayStore.open(store.root)
        assert reopened.generation == 2
        assert reopened.num_samples == 26
        np.testing.assert_array_equal(
            reopened.labels, np.concatenate([labels, labels[:3]])
        )

    def test_rejects_bad_target(self, store):
        with pytest.raises(StoreError):
            store.compact(shard_samples=0)


class TestShardNames:
    def test_generation_zero_is_unstamped(self):
        assert _shard_name(0, 7) == "shard-00007.bin"
        assert _shard_name(3, 7) == "shard-g003-00007.bin"

    def test_names_are_unique_across_generations_and_positions(self):
        names = [_shard_name(g, i) for g in (0, 1, 9, 10, 999, 1000, 12345) for i in range(3)]
        assert len(set(names)) == len(names)
        for name in names:
            assert name.startswith("shard-") and name.endswith(".bin")

    def test_overwrite_continues_the_generation_count(self, store, raster, labels):
        # The replaced store's appends wrote unstamped generation-0
        # names; the replacement's appends must not write them again.
        old = {s.file for s in store.shards}
        fresh = ReplayStore.create(
            store.root,
            stored_frames=16,
            num_channels=12,
            generated_timesteps=16,
            shard_samples=8,
            overwrite=True,
        )
        assert fresh.generation == store.generation + 1
        fresh.append(raster, labels)
        assert not old & {s.file for s in fresh.shards}


class TestFilter:
    def test_keeps_exactly_the_requested_samples(self, store, raster, labels):
        keep = np.asarray([0, 3, 7, 8, 15, 22])
        assert store.filter(keep) == 23 - 6
        assert store.num_samples == 6
        np.testing.assert_array_equal(store.labels, labels[keep])
        decoded = np.concatenate(
            [store.read_shard(i)[0] for i in range(store.num_shards)], axis=1
        )
        np.testing.assert_array_equal(decoded, raster[:, keep, :])

    def test_keep_all_is_a_noop(self, store):
        generation = store.generation
        assert store.filter(np.arange(23)) == 0
        assert store.generation == generation  # no rewrite happened

    def test_filter_to_empty(self, store):
        assert store.filter(np.asarray([], dtype=np.int64)) == 23
        assert store.num_samples == 0
        assert not list(store.root.glob("shard-*.bin"))
        assert ReplayStore.open(store.root).num_samples == 0

    def test_persists_and_repacks_shards(self, store, labels):
        keep = np.arange(0, 23, 2)  # 12 survivors at shard_samples=8
        store.filter(keep)
        reopened = ReplayStore.open(store.root)
        assert [s.num_samples for s in reopened.shards] == [8, 4]
        np.testing.assert_array_equal(reopened.labels, labels[keep])
        assert reopened.generation == 1

    def test_validates_indices(self, store):
        with pytest.raises(StoreError, match="out of range"):
            store.filter(np.asarray([23]))
        with pytest.raises(StoreError, match="strictly increasing"):
            store.filter(np.asarray([3, 3]))
        with pytest.raises(StoreError, match="strictly increasing"):
            store.filter(np.asarray([5, 2]))
        with pytest.raises(StoreError, match="1-D"):
            store.filter(np.zeros((2, 2), dtype=np.int64))
