"""Concurrency suite: locks, never-reused shard names, crash windows.

The two-handle contract under test everywhere here: a reader that
overlaps a mutation either reads its own snapshot's exact bytes or gets
a clean ``StoreError`` — **never** a vanished-file ``OSError`` and never
another snapshot's bytes.  It rests on one invariant: a shard file name
is never reused, so superseded files can be unlinked right after each
commit without any reader registry.
"""

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.errors import StoreError
from repro.ioutil import FileLock
from repro.replaystore import (
    FederatedReplayStore,
    PrefetchingStream,
    ReplayStore,
    ReplayStream,
)
from repro.replaystore.store import INDEX_NAME, LOCK_NAME

FRAMES, CHANNELS = 8, 12

SRC = str(Path(__file__).resolve().parents[2] / "src")


def make_store(root, labels, *, seed=0, shard_samples=4):
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    raster = (rng.random((FRAMES, labels.size, CHANNELS)) < 0.2).astype(
        np.float32
    )
    store = ReplayStore.create(
        root,
        stored_frames=FRAMES,
        num_channels=CHANNELS,
        generated_timesteps=FRAMES,
        shard_samples=shard_samples,
    )
    store.append(raster, labels)
    return store


def make_federation(root, members=3, samples=8, seed=0):
    fed = FederatedReplayStore.create(root, seed=seed)
    for k in range(members):
        make_store(
            root / f"task-{k}",
            np.arange(samples) % 4,
            seed=seed + k,
        )
        fed.adopt(f"task-{k}")
    return fed


def shard_names(root):
    """Names of the shard files on disk under ``root``."""
    return {p.name for p in root.glob("shard-*.bin")}


def dense_of(store):
    """The store's samples as one dense raster (a fresh stream)."""
    return ReplayStream(store).materialize()


class TestNeverReusedNames:
    """The contract that replaced reader pins."""

    def test_gathers_racing_mutations_are_bitwise_or_store_error(self, tmp_path):
        root = tmp_path / "s"
        rng = np.random.default_rng(7)
        writer = make_store(root, np.arange(16) % 4)
        # Every committed snapshot, keyed by its shard table, with the
        # dense raster a gather against it must slice from.
        expected = {}

        def record():
            key = tuple((s.file, s.num_samples) for s in writer.shards)
            expected[key] = dense_of(writer)

        record()
        done = threading.Event()
        gathers, failures = [], []

        def read(seed):
            rng_read = np.random.default_rng(seed)
            while not done.is_set():
                try:
                    stream = ReplayStream(ReplayStore.open(root), cache_shards=1)
                except StoreError:
                    continue
                key = tuple((s.file, s.num_samples) for s in stream.store.shards)
                while not done.is_set():
                    indices = rng_read.integers(0, stream.num_samples, 5)
                    try:
                        data = stream.gather(indices)
                    except StoreError:
                        break  # mutated under us: clean, expected
                    except Exception as error:  # pragma: no cover - the bug
                        failures.append(error)
                        return
                    if len(gathers) < 5000:  # bounds memory, not the race
                        gathers.append((key, indices, data))

        # More threads than cores and a short switch interval, so
        # gathers interleave with commits and unlinks as often as possible.
        readers = [threading.Thread(target=read, args=(seed,)) for seed in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            for step in range(12):
                raster = (rng.random((FRAMES, 4, CHANNELS)) < 0.2).astype(np.float32)
                writer.append(raster, np.full(4, step % 4))
                record()
                writer.filter(np.arange(4, writer.num_samples))
                record()
                writer.compact(shard_samples=3 + step % 3)
                record()
        finally:
            done.set()
            sys.setswitchinterval(interval)
            for reader in readers:
                reader.join(timeout=30)
        assert not any(reader.is_alive() for reader in readers)

        assert failures == []
        assert gathers, "no reader completed a gather"
        for key, indices, data in gathers:
            np.testing.assert_array_equal(data, expected[key][:, indices, :])

    def test_names_never_reused(self, tmp_path):
        root = tmp_path / "s"
        store = make_store(root, np.arange(12) % 3)
        ones = np.ones((FRAMES, 6, CHANNELS), np.float32)
        steps = [
            lambda: store.compact(shard_samples=5),
            lambda: store.append(ones, np.zeros(6)),
            lambda: store.filter(np.arange(0, store.num_samples, 2)),
            lambda: ReplayStore.create(
                root,
                stored_frames=FRAMES,
                num_channels=CHANNELS,
                generated_timesteps=FRAMES,
                shard_samples=4,
                overwrite=True,
            ).append(ones, np.zeros(6)),
        ]
        history = [{p.name: p.read_bytes() for p in root.glob("shard-*.bin")}]
        for step in steps:
            step()
            history.append({p.name: p.read_bytes() for p in root.glob("shard-*.bin")})

        # A name always holds the bytes it was first written with, and
        # once a commit drops it, it never comes back.
        contents, retired = {}, set()
        for before, after in zip(history, history[1:]):
            assert not (after.keys() & retired), "a retired shard name came back"
            retired |= before.keys() - after.keys()
        for snapshot in history:
            for name, blob in snapshot.items():
                assert contents.setdefault(name, blob) == blob, f"{name} was rewritten"

    def test_no_superseded_file_survives_a_mutation(self, tmp_path):
        root = tmp_path / "s"
        store = make_store(root, np.arange(12) % 3)
        stream = ReplayStream(ReplayStore.open(root))
        stream.gather(np.arange(12))
        mutations = [
            lambda: store.filter(np.arange(0, 12, 2)),
            lambda: store.compact(shard_samples=5),
            lambda: store.append(
                np.ones((FRAMES, 3, CHANNELS), np.float32), np.zeros(3)
            ),
        ]
        for mutate in mutations:
            mutate()
            # Even with a stream open on an old snapshot, the disk holds
            # exactly the committed index's files: nothing is kept alive
            # for readers, and readers leave nothing behind.
            committed = {s.file for s in ReplayStore.open(root).shards}
            assert shard_names(root) == committed
            files = {p.name for p in root.iterdir()}
            assert files == committed | {INDEX_NAME, LOCK_NAME}
        with pytest.raises(StoreError, match="mutated"):
            stream.gather(np.arange(4))


def _append(store):
    store.append(np.ones((FRAMES, 3, CHANNELS), np.float32), np.zeros(3))


def _overwrite(store):
    ReplayStore.create(
        store.root,
        stored_frames=FRAMES,
        num_channels=CHANNELS,
        generated_timesteps=FRAMES,
        overwrite=True,
    )


#: Every way a second handle can change a store under a reader, with
#: the dense raster the store must hold afterwards (given the old one).
MUTATIONS = {
    "append": (
        _append,
        lambda dense: np.concatenate(
            [dense, np.ones((FRAMES, 3, CHANNELS), np.float32)], axis=1
        ),
    ),
    "filter": (
        lambda store: store.filter(np.arange(0, 12, 2)),
        lambda dense: dense[:, 0:12:2, :],
    ),
    "compact": (lambda store: store.compact(shard_samples=5), lambda dense: dense),
    "overwrite": (_overwrite, lambda dense: dense[:, :0, :]),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
class TestEachMutation:
    """The two-handle contract, one mutation kind at a time."""

    def test_stale_stream_raises_store_error(self, tmp_path, mutation):
        root = tmp_path / "s"
        make_store(root, np.arange(12) % 3)
        stream = ReplayStream(ReplayStore.open(root), cache_shards=1)
        stream.materialize()
        MUTATIONS[mutation][0](ReplayStore.open(root))
        # The first shard was evicted from the one-slot cache, so this
        # gather must decode and thus notice the new index.
        with pytest.raises(StoreError, match="mutated"):
            stream.gather(np.arange(4))

    def test_stale_handle_reads_own_bytes_or_store_error(self, tmp_path, mutation):
        root = tmp_path / "s"
        make_store(root, np.arange(12) % 3)
        stale = ReplayStore.open(root)
        before = [stale.read_shard(i) for i in range(stale.num_shards)]
        MUTATIONS[mutation][0](ReplayStore.open(root))
        outcomes = []
        for shard_id, (raster, labels) in enumerate(before):
            try:
                got_raster, got_labels = stale.read_shard(shard_id)
            except StoreError as error:
                assert "gone" in str(error)
                outcomes.append("error")
                continue
            np.testing.assert_array_equal(got_raster, raster)
            np.testing.assert_array_equal(got_labels, labels)
            outcomes.append("read")
        # Only append keeps the old files; every rewrite unlinks them.
        want = "read" if mutation == "append" else "error"
        assert outcomes == [want] * len(before)

    def test_fresh_handle_is_bitwise(self, tmp_path, mutation):
        root = tmp_path / "s"
        make_store(root, np.arange(12) % 3)
        dense = dense_of(ReplayStore.open(root))
        mutate, expect = MUTATIONS[mutation]
        mutate(ReplayStore.open(root))
        np.testing.assert_array_equal(dense_of(ReplayStore.open(root)), expect(dense))

    def test_disk_holds_exactly_the_committed_files(self, tmp_path, mutation):
        root = tmp_path / "s"
        make_store(root, np.arange(12) % 3)
        stream = ReplayStream(ReplayStore.open(root))
        stream.gather(np.arange(12))
        before = shard_names(root)
        MUTATIONS[mutation][0](ReplayStore.open(root))
        committed = {s.file for s in ReplayStore.open(root).shards}
        assert {p.name for p in root.iterdir()} == committed | {INDEX_NAME, LOCK_NAME}
        if mutation == "append":
            assert before < committed
        else:
            assert not before & committed, "a rewrite reused a shard name"


#: Patches that kill the rewriting process (``os._exit``) at one point
#: of the staged rewrite: while writing the new generation, at the
#: index commit, or after the commit while unlinking superseded files.
_CRASH_PATCHES = {
    "second-shard": (
        "real = storemod.ReplayStore._write_shard; calls = []\n"
        "def write(self, *a):\n"
        "    calls.append(1)\n"
        "    if len(calls) == 2: os._exit(0)\n"
        "    return real(self, *a)\n"
        "storemod.ReplayStore._write_shard = write\n"
    ),
    "commit": "storemod.atomic_write_json = lambda *a, **k: os._exit(0)\n",
    "sweep": "storemod.Path.unlink = lambda *a, **k: os._exit(0)\n",
}

_REWRITES = {
    "filter": ("store.filter(np.arange(0, 12, 2))", lambda dense: dense[:, 0:12:2, :]),
    "compact": ("store.compact(shard_samples=5)", lambda dense: dense),
}


@pytest.mark.parametrize("point", sorted(_CRASH_PATCHES))
@pytest.mark.parametrize("rewrite", sorted(_REWRITES))
def test_rewrite_killed_mid_flight_leaves_an_openable_store(tmp_path, rewrite, point):
    root = tmp_path / "s"
    make_store(root, np.arange(12) % 3)
    dense = dense_of(ReplayStore.open(root))
    call, expect = _REWRITES[rewrite]
    code = (
        "import os, sys\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "import numpy as np\n"
        "import repro.replaystore.store as storemod\n"
        + _CRASH_PATCHES[point]
        + "store = storemod.ReplayStore.open(sys.argv[1])\n"
        + call
        + "\nsys.exit(3)  # the patch must have fired\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, str(root), SRC], capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr

    # The index rename is the commit point: before it the old snapshot
    # is intact, after it the new one is; either opens bitwise.
    committed = point == "sweep"
    store = ReplayStore.open(root)
    want = expect(dense) if committed else dense
    np.testing.assert_array_equal(dense_of(store), want)
    assert store.generation == int(committed)
    # The dead process left files the committed index does not name...
    orphans = shard_names(root) - {s.file for s in store.shards}
    assert orphans
    # ...and the next rewrite removes them.
    store.compact()
    assert shard_names(root) == {s.file for s in ReplayStore.open(root).shards}
    np.testing.assert_array_equal(dense_of(ReplayStore.open(root)), want)


class TestTwoHandleCompaction:
    def test_stale_handle_reads_shard_as_store_error(self, tmp_path):
        store = make_store(tmp_path / "s", np.arange(8) % 2)
        stale = ReplayStore.open(tmp_path / "s")
        store.filter(np.arange(4))
        store.compact()
        # The stale handle's shard list references unlinked files; the
        # read wraps the OSError into the taxonomy.
        try:
            stale.read_shard(0)
        except StoreError:
            pass
        except OSError as error:  # pragma: no cover - the bug under test
            raise AssertionError(f"leaked OSError: {error!r}")


class TestLockedMutations:
    def test_threaded_appends_through_separate_handles(self, tmp_path):
        make_store(tmp_path / "s", np.arange(4) % 2)
        threads, errors = [], []

        def append(worker):
            try:
                rng = np.random.default_rng(worker)
                handle = ReplayStore.open(tmp_path / "s")
                raster = (rng.random((FRAMES, 5, CHANNELS)) < 0.2).astype(
                    np.float32
                )
                handle.append(raster, np.full(5, worker))
            except Exception as error:  # pragma: no cover - must not happen
                errors.append(error)

        for worker in range(6):
            threads.append(threading.Thread(target=append, args=(worker,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        merged = ReplayStore.open(tmp_path / "s")
        # Every append survived the read-modify-write race: the lock
        # serialized them, so no commit was lost.
        assert merged.num_samples == 4 + 6 * 5
        counts = {
            int(label): int(count)
            for label, count in zip(*np.unique(merged.labels, return_counts=True))
        }
        for worker in range(2, 6):
            assert counts[worker] == 5

    def test_mutation_blocks_until_lock_released(self, tmp_path):
        store = make_store(tmp_path / "s", np.arange(4) % 2)
        gate = FileLock(tmp_path / "s" / LOCK_NAME)
        gate.acquire()
        done = threading.Event()

        def append():
            rng = np.random.default_rng(0)
            raster = (rng.random((FRAMES, 2, CHANNELS)) < 0.2).astype(
                np.float32
            )
            ReplayStore.open(tmp_path / "s").append(raster, np.zeros(2))
            done.set()

        thread = threading.Thread(target=append)
        thread.start()
        assert not done.wait(0.3), "append must block while the lock is held"
        gate.release()
        thread.join(timeout=10)
        assert done.is_set()
        assert ReplayStore.open(tmp_path / "s").num_samples == 6
        # The gate handle observed none of the append's changes, but the
        # store's own handle reloads under the lock and stays coherent.
        assert store.num_samples == 4

    def test_threaded_federation_adopts_and_readers(self, tmp_path):
        fed = make_federation(tmp_path / "fed", members=2, samples=8)
        for k in range(4):
            make_store(
                tmp_path / "fed" / f"late-{k}",
                np.arange(8) % 4,
                seed=50 + k,
            )
        errors = []

        def adopt(k):
            try:
                FederatedReplayStore.open(tmp_path / "fed").adopt(f"late-{k}")
            except Exception as error:  # pragma: no cover - must not happen
                errors.append(error)

        def read():
            try:
                for _ in range(6):
                    fed = FederatedReplayStore.open(tmp_path / "fed")
                    for _name, store in fed.members():
                        data = ReplayStream(store).gather(np.arange(8))
                        assert data.shape == (FRAMES, 8, CHANNELS)
            except Exception as error:  # pragma: no cover - must not happen
                errors.append(error)

        threads = [
            threading.Thread(target=adopt, args=(k,)) for k in range(4)
        ] + [threading.Thread(target=read) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        merged = FederatedReplayStore.open(tmp_path / "fed")
        assert sorted(merged.member_names) == sorted(
            ["task-0", "task-1"] + [f"late-{k}" for k in range(4)]
        )
        assert merged.num_samples == 6 * 8


class TestAdoptCrashWindow:
    def _crash_create_overwrite(self, root):
        """Re-create the federation, dying inside the removal window."""
        code = (
            "import sys; sys.path.insert(0, sys.argv[2]); "
            "import os; "
            "import repro.replaystore.federation as fedmod; "
            "fedmod.shutil.rmtree = lambda *a, **k: os._exit(0); "
            "fedmod.FederatedReplayStore.create(sys.argv[1], overwrite=True)"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code, str(root), SRC],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr

    def test_adopt_refuses_orphan_member_dir(self, tmp_path):
        root = tmp_path / "fed"
        make_federation(root, members=1, samples=8)
        self._crash_create_overwrite(root)

        # The interrupted overwrite committed a ledger naming the old
        # member dir before touching it: the dir survived the crash and
        # the fresh federation knows it is an orphan.
        fed = FederatedReplayStore.open(root)
        assert fed.member_names == []
        assert fed.pending_removal == ["task-0"]
        assert (root / "task-0").is_dir()
        with pytest.raises(StoreError, match="predates this federation"):
            fed.adopt("task-0")

    def test_allow_orphan_claims_and_clears_ledger(self, tmp_path):
        root = tmp_path / "fed"
        make_federation(root, members=1, samples=8)
        self._crash_create_overwrite(root)

        fed = FederatedReplayStore.open(root)
        store = fed.adopt("task-0", allow_orphan=True)
        assert store.num_samples == 8
        reopened = FederatedReplayStore.open(root)
        assert reopened.pending_removal == []
        assert reopened.member_names == ["task-0"]

    def test_rerunning_create_clears_the_orphans(self, tmp_path):
        root = tmp_path / "fed"
        make_federation(root, members=1, samples=8)
        self._crash_create_overwrite(root)

        FederatedReplayStore.create(root, overwrite=True)
        assert not (root / "task-0").exists()
        assert FederatedReplayStore.open(root).pending_removal == []


class TestPrefetchUnderRebalance:
    def test_parity_then_clean_error(self, tmp_path):
        fed = make_federation(tmp_path / "fed", members=3, samples=8)
        views = []
        for _name, store in fed.members():
            dense = dense_of(store)
            view = PrefetchingStream(ReplayStream(store), enabled=True)
            indices = np.arange(0, dense.shape[1], 3)
            view.prefetch(indices)
            np.testing.assert_array_equal(view.gather(indices), dense[:, indices, :])
            views.append(view)

        writer = FederatedReplayStore.open(tmp_path / "fed")
        writer.configure(budget_bytes=(writer.num_samples // 2) * writer.sample_bytes)
        assert writer.rebalance() > 0

        for view in views:
            # Every member lost samples, so every member view is stale.
            with pytest.raises(StoreError, match="mutated"):
                view.gather(np.arange(view.num_samples))
            view.close()

    def test_fresh_view_after_rebalance_is_bitwise(self, tmp_path):
        make_federation(tmp_path / "fed", members=3, samples=8)
        writer = FederatedReplayStore.open(tmp_path / "fed")
        writer.configure(
            budget_bytes=(writer.num_samples // 2) * writer.sample_bytes
        )
        writer.rebalance()

        fresh = FederatedReplayStore.open(tmp_path / "fed")
        for _name, store in fresh.members():
            dense = dense_of(store)
            view = PrefetchingStream(ReplayStream(store), enabled=True)
            view.prefetch(np.arange(dense.shape[1]))
            np.testing.assert_array_equal(
                view.gather(np.arange(dense.shape[1])), dense
            )
            view.close()
