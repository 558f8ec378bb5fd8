"""Tests for the atomic write-then-rename helpers (repro.ioutil)."""

import json

import pytest

from repro import ioutil
from repro.errors import ConfigError
from repro.ioutil import (
    TMP_SUFFIX,
    atomic_open,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)


class TestAtomicOpen:
    def test_text_round_trip(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_open(target, "w") as handle:
            handle.write("hello")
        assert target.read_text() == "hello"

    def test_binary_round_trip(self, tmp_path):
        target = tmp_path / "out.bin"
        with atomic_open(target, "wb") as handle:
            handle.write(b"\x00\x01\x02")
        assert target.read_bytes() == b"\x00\x01\x02"

    def test_rejects_non_write_modes(self, tmp_path):
        for mode in ("r", "a", "r+", "w+", "x"):
            with pytest.raises(ConfigError, match="atomic_open supports"):
                with atomic_open(tmp_path / "out", mode):
                    pass  # pragma: no cover

    def test_staging_file_removed_on_success(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_open(target, "w") as handle:
            handle.write("x")
        assert list(tmp_path.iterdir()) == [target]

    def test_exception_preserves_previous_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("previous")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_open(target, "w") as handle:
                handle.write("partial garbage")
                raise RuntimeError("boom")
        assert target.read_text() == "previous"
        assert not target.with_name(target.name + TMP_SUFFIX).exists()

    def test_crash_in_rename_window_preserves_previous_content(
        self, tmp_path, monkeypatch
    ):
        """Process death between write and rename must not corrupt the file.

        Simulates a crash at the worst possible instant — the staging
        file is fully written but ``os.replace`` never runs — and checks
        the reader-visible file still holds the previous complete
        content, with the staging file left behind as inert debris.
        """
        target = tmp_path / "state.json"
        target.write_text('{"step": 1}\n')

        def crash(src, dst):
            raise KeyboardInterrupt("simulated process death")

        monkeypatch.setattr(ioutil.os, "replace", crash)
        with pytest.raises(KeyboardInterrupt):
            atomic_write_text(target, '{"step": 2}\n')
        assert json.loads(target.read_text()) == {"step": 1}

    def test_commit_is_a_single_rename(self, tmp_path, monkeypatch):
        """The only mutation of the final path is one os.replace call."""
        target = tmp_path / "out.txt"
        target.write_text("old")
        calls = []
        real_replace = ioutil.os.replace

        def spy(src, dst):
            calls.append((str(src), str(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(ioutil.os, "replace", spy)
        atomic_write_text(target, "new")
        assert calls == [(str(target) + TMP_SUFFIX, str(target))]
        assert target.read_text() == "new"


class TestWriteHelpers:
    def test_atomic_write_bytes(self, tmp_path):
        target = tmp_path / "blob"
        atomic_write_bytes(target, b"abc")
        assert target.read_bytes() == b"abc"

    def test_atomic_write_json_format(self, tmp_path):
        """indent=1 + trailing newline — the shared on-disk JSON format."""
        target = tmp_path / "index.json"
        payload = {"version": 1, "items": [1, 2]}
        atomic_write_json(target, payload)
        assert target.read_text() == json.dumps(payload, indent=1) + "\n"

    def test_atomic_write_json_overwrites(self, tmp_path):
        target = tmp_path / "index.json"
        atomic_write_json(target, {"a": 1})
        atomic_write_json(target, {"a": 2})
        assert json.loads(target.read_text()) == {"a": 2}


class TestFileLock:
    def test_exclusion_between_instances(self, tmp_path):
        path = tmp_path / "x.lock"
        first = ioutil.FileLock(path)
        second = ioutil.FileLock(path)
        assert first.acquire()
        assert second.acquire(blocking=False) is False
        first.release()
        assert second.acquire(blocking=False)
        second.release()

    def test_not_reentrant(self, tmp_path):
        lock = ioutil.FileLock(tmp_path / "x.lock")
        lock.acquire()
        with pytest.raises(ConfigError):
            lock.acquire()
        lock.release()

    def test_release_idempotent_and_keeps_file(self, tmp_path):
        path = tmp_path / "x.lock"
        lock = ioutil.FileLock(path)
        lock.acquire()
        lock.release()
        lock.release()
        assert path.exists()  # unlinking would split future exclusion

    def test_context_manager(self, tmp_path):
        path = tmp_path / "x.lock"
        with ioutil.FileLock(path) as lock:
            assert lock.held
            assert ioutil.FileLock(path).acquire(blocking=False) is False
        assert not lock.held

    def test_locked_helper(self, tmp_path):
        path = tmp_path / "x.lock"
        with ioutil.locked(path):
            assert ioutil.FileLock(path).acquire(blocking=False) is False
        assert ioutil.FileLock(path).acquire(blocking=False)

    def test_locked_releases_when_the_block_raises(self, tmp_path):
        path = tmp_path / "x.lock"
        with pytest.raises(RuntimeError, match="boom"):
            with ioutil.locked(path) as lock:
                assert lock.held
                raise RuntimeError("boom")
        assert not lock.held
        assert ioutil.FileLock(path).acquire(blocking=False)
