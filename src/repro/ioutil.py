"""Atomic file-write helpers shared by every persistence layer.

The crash-safety story of the replay store (``index.json``), the
federation ledger (``federation.json``) and the scenario checkpoint
(``manifest.json`` + network archives) is the same three-step protocol:

1. write the complete new content to a staging file (``<name>.tmp``)
   next to the final path;
2. atomically rename it over the final path (``os.replace`` — atomic on
   POSIX and Windows for same-directory renames);
3. only afterwards remove anything the old content made reachable.

A crash at any point leaves either the previous complete file or the
new complete file — never a truncated mixture.  This module is the one
blessed implementation of steps 1–2; the linter rule ``RPL004``
(:mod:`repro.lint`) forbids persistence modules from open-coding bare
``open(path, "w")`` / ``json.dump`` writes so the protocol cannot be
silently bypassed.

The helpers deliberately do not ``fsync``: the crash model is process
death (preempted worker, ``kill -9``, ``os._exit``), which the rename
protocol already survives, and the callers commit after every scenario
step — per-commit fsyncs would dominate small-step streaming runs.

One concurrency primitive lives here too, because it completes the same
story for *multi-handle* access: :class:`FileLock`, an exclusive
advisory lock (``fcntl.flock``) on a dedicated ``*.lock`` file, held
across the read-modify-write of an index whose commit point is the
atomic rename.  The lock file is separate from the index because the
index inode changes on every rename; a lock taken on the index itself
would silently stop excluding anyone after the first commit.  Readers
take no lock: the replay store never reuses a shard file name, so a
reader holding an old snapshot either reads that snapshot's bytes or
finds the file gone (see :mod:`repro.replaystore.store`).

``fcntl`` is POSIX-only; on platforms without it the lock degrades
to a no-op (single-process use stays correct, cross-process exclusion is
best-effort), mirroring how advisory locks behave on exotic filesystems.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

try:  # pragma: no cover - fcntl exists everywhere tier-1 runs
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.errors import ConfigError

__all__ = [
    "TMP_SUFFIX",
    "atomic_open",
    "atomic_write_text",
    "atomic_write_json",
    "FileLock",
    "locked",
]

#: Suffix of the staging file written next to the final path.
TMP_SUFFIX = ".tmp"


@contextmanager
def atomic_open(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open a staging file that atomically replaces ``path`` on success.

    Yields a writable handle onto ``<path>.tmp``; when the block exits
    cleanly the handle is flushed, closed, and renamed over ``path`` in
    one atomic step.  If the block raises, the staging file is removed
    and ``path`` is left exactly as it was.

    Args:
        path: Final destination of the write.
        mode: ``"w"`` (text) or ``"wb"`` (binary).

    Raises:
        ConfigError: If ``mode`` is not a plain write mode.
    """
    if mode not in ("w", "wb"):
        raise ConfigError(f"atomic_open supports modes 'w' and 'wb', got {mode!r}")
    path = Path(path)
    staging = path.with_name(path.name + TMP_SUFFIX)
    handle = open(staging, mode, encoding=None if mode == "wb" else "utf-8")
    try:
        yield handle
    except BaseException:
        handle.close()
        staging.unlink(missing_ok=True)
        raise
    handle.flush()
    handle.close()
    os.replace(staging, path)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (write-then-rename)."""
    with atomic_open(path, "w") as handle:
        handle.write(text)


def atomic_write_json(path: str | Path, payload, indent: int = 1) -> None:
    """Atomically replace ``path`` with ``payload`` serialized as JSON.

    The serialization (``indent=1`` plus a trailing newline) matches the
    store index, federation ledger, and checkpoint manifest formats, so
    migrating a call site onto this helper is byte-identical.
    """
    atomic_write_text(path, json.dumps(payload, indent=indent) + "\n")


# ----------------------------------------------------------------------
# Advisory locking
# ----------------------------------------------------------------------
class FileLock:
    """Exclusive advisory lock on a dedicated lock file.

    Backed by ``fcntl.flock``, whose lock lives on the *open file
    description*: two :class:`FileLock` instances on the same path
    exclude each other whether they belong to different processes or to
    different threads of one process, and a crashed holder's lock is
    released by the kernel automatically.  Locks are advisory — only
    cooperating writers (everything that goes through the store and
    federation mutation paths) are excluded.

    Not re-entrant: acquiring an already-held instance raises, and two
    instances in one thread deadlock like any mutex would.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle: IO | None = None

    def acquire(self, blocking: bool = True) -> bool:
        """Take the lock; returns False when non-blocking and contended.

        Raises:
            ConfigError: If this instance already holds the lock.
        """
        if self._handle is not None:
            raise ConfigError(f"lock {self.path} is already held by this handle")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(self.path, "a")
        if fcntl is not None:
            flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
            try:
                fcntl.flock(handle.fileno(), flags)
            except OSError:
                handle.close()
                if blocking:
                    raise  # not contention: a real I/O failure
                return False
        self._handle = handle
        return True

    def release(self) -> None:
        """Drop the lock; idempotent.

        The lock file itself is left in place: unlinking it would let a
        later acquirer lock a *new* inode while an old handle still
        holds the vanished one, splitting the mutual exclusion.
        """
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        handle.close()

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


@contextmanager
def locked(path: str | Path) -> Iterator[FileLock]:
    """Hold an exclusive :class:`FileLock` on ``path`` for the block."""
    lock = FileLock(path)
    lock.acquire()
    try:
        yield lock
    finally:
        lock.release()
