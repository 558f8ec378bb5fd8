"""Async shard prefetch: overlap shard decode with the SNN step.

Store-backed training pays a shard decode (disk read + codec) on every
LRU miss, serialised with the training step.  :class:`PrefetchingStream`
wraps a :class:`~repro.replaystore.stream.ReplayStream` and moves that
decode onto a background thread: callers (the
:class:`~repro.data.loaders.DataLoader`, via
:meth:`~repro.replaystore.stream.ConcatReplaySource.prefetch`) advise
which samples the *next* minibatch needs, the worker decodes the missing
shards into the stream's shared LRU while the current batch is training,
and the next ``gather`` finds them already resident.

Determinism: shard decode is pure (lossless codecs, no RNG), the worker
only ever *warms the cache*, and batch assembly stays on the calling
thread in calling order — so training trajectories are bitwise-identical
with prefetch on or off.  Set ``REPRO_PREFETCH=0`` to disable the
background thread everywhere (the wrapper degrades to a synchronous
passthrough).
"""

from __future__ import annotations

import queue
import threading

import numpy as np

from repro import obs
from repro.config import env_switch
from repro.errors import StoreError
from repro.replaystore.stream import ReplayStream

__all__ = ["PrefetchingStream", "prefetch_enabled"]

#: Sentinel telling the worker thread to exit.
_STOP = object()


def prefetch_enabled() -> bool:
    """Whether async shard prefetch is globally enabled.

    Controlled by the ``REPRO_PREFETCH`` environment variable; any of
    ``0``/``false``/``off`` disables the background decode thread.
    """
    return env_switch("REPRO_PREFETCH")


class PrefetchingStream:
    """A :class:`ReplayStream` with a background shard-decode worker.

    Parameters
    ----------
    stream:
        The wrapped replay stream; its LRU cache is the hand-off point
        between the worker and the caller, guarded by one lock.
    queue_shards:
        Bound of the decode request queue.  Requests beyond the bound
        are dropped (prefetch is advisory — a dropped request only means
        the shard decodes synchronously on first touch), so resident
        memory stays ``cache_shards`` decoded shards regardless of how
        aggressively callers advise.
    enabled:
        ``True``/``False`` forces the worker on/off; ``None`` (default)
        defers to :func:`prefetch_enabled`.  Disabled instances are pure
        passthroughs: same API, no thread, zero overhead.

    The wrapper serves the full lazy-source protocol (``shape`` /
    ``gather`` / ``labels`` / iteration), so it drops in anywhere a
    :class:`ReplayStream` does.  A worker exception is captured and
    re-raised as :class:`~repro.errors.StoreError` on the next public
    call — errors never vanish into the background thread.  Use as a
    context manager (or call :meth:`close`) to shut the worker down
    deterministically.
    """

    def __init__(
        self,
        stream: ReplayStream,
        queue_shards: int = 2,
        enabled: bool | None = None,
    ):
        if queue_shards < 1:
            raise StoreError(f"queue_shards must be >= 1, got {queue_shards}")
        self.stream = stream
        self.enabled = prefetch_enabled() if enabled is None else bool(enabled)
        self.queue_shards = int(queue_shards)
        #: Shards decoded by the worker (telemetry; synchronous decodes
        #: appear in ``stream.shard_decodes`` as usual).
        self.prefetched_shards = 0
        self._lock = threading.Lock()
        self._error: BaseException | None = None
        self._closed = False
        self._queue: queue.Queue | None = None
        self._worker: threading.Thread | None = None
        if self.enabled:
            self._queue = queue.Queue(maxsize=self.queue_shards)
            self._worker = threading.Thread(
                target=self._drain, name="replay-prefetch", daemon=True
            )
            self._worker.start()

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Worker loop: decode requested shards into the shared LRU."""
        assert self._queue is not None
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            shard_id, enqueued_at = item
            obs.observe("prefetch.wait_seconds", obs.now() - enqueued_at)
            try:
                with self._lock:
                    if shard_id not in self.stream._cache:
                        with obs.span(
                            "prefetch.decode", category="store", shard=shard_id
                        ):
                            self.stream._decoded(int(shard_id))
                        self.prefetched_shards += 1
            except BaseException as error:  # propagate on next public call
                self._error = error
                return

    def _check_error(self) -> None:
        if self._error is not None:
            raise StoreError(
                f"prefetch worker failed: {self._error}"
            ) from self._error

    # ------------------------------------------------------------------
    # Lazy-source protocol (passthrough, lock-guarded)
    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        """Sample count of the wrapped stream."""
        return self.stream.num_samples

    @property
    def timesteps(self) -> int:
        """Frames per served sample (see :attr:`ReplayStream.timesteps`)."""
        return self.stream.timesteps

    @property
    def num_channels(self) -> int:
        """Channel count of the wrapped stream."""
        return self.stream.num_channels

    @property
    def shape(self) -> tuple[int, int, int]:
        """Logical ``[T, n, C]`` shape of the wrapped stream."""
        return self.stream.shape

    @property
    def labels(self) -> np.ndarray:
        """Labels of the wrapped stream (re-raising worker errors)."""
        self._check_error()
        return self.stream.labels

    @property
    def peak_cache_bytes(self) -> int:
        """High-water decoded-shard residency of the wrapped stream."""
        return self.stream.peak_cache_bytes

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Decode the requested samples (see :meth:`ReplayStream.gather`).

        Identical output to the wrapped stream's ``gather`` — prefetch
        only changes *when* shards decode, never what a gather returns.
        """
        self._check_error()
        with self._lock:
            return self.stream.gather(indices)

    def prefetch(self, indices: np.ndarray) -> int:
        """Queue background decodes for the shards holding ``indices``.

        Advisory and non-blocking: already-cached shards are skipped and
        requests beyond the queue bound are dropped.  Returns the number
        of decode requests actually queued.
        """
        self._check_error()
        if not self.enabled or self._closed:
            return 0
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return 0
        shard_of = (
            np.searchsorted(self.stream._bounds, indices, side="right") - 1
        )
        # Snapshot cached status in ONE lock acquisition before queuing
        # anything: the first enqueue wakes the worker, which takes the
        # lock to decode — re-checking per shard after that would stall
        # this (training) thread behind a full shard decode.
        with self._lock:
            missing = [
                int(shard_id)
                for shard_id in np.unique(shard_of)
                if int(shard_id) not in self.stream._cache
            ]
        queued = 0
        assert self._queue is not None
        for shard_id in missing:
            try:
                self._queue.put_nowait((shard_id, obs.now()))
                queued += 1
            except queue.Full:
                obs.count("prefetch.dropped", len(missing) - queued)
                break
        if queued:
            obs.count("prefetch.queued", queued)
        obs.gauge("prefetch.queue_depth", self._queue.qsize())
        return queued

    def __iter__(self):
        """Shard-ordered iteration with one-shard lookahead."""
        self._check_error()
        num_shards = len(self.stream._signature)
        for shard_id in range(num_shards):
            if shard_id + 1 < num_shards:
                start = self.stream._bounds[shard_id + 1]
                self.prefetch(np.asarray([start]))
            self._check_error()
            with self._lock:
                raster = self.stream._decoded(shard_id)
                labels = np.asarray(
                    self.stream.store.shards[shard_id].labels, dtype=np.int64
                )
            yield raster, labels

    def materialize(self) -> np.ndarray:
        """Densify the whole stream (tests/small stores only)."""
        self._check_error()
        with self._lock:
            return self.stream.materialize()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the worker thread; idempotent, never raises.

        After ``close`` the wrapper keeps serving ``gather`` calls
        synchronously (``prefetch`` becomes a no-op), so shutdown order
        relative to the last batch does not matter.
        """
        if self._closed:
            return
        self._closed = True
        worker = self._worker
        if worker is None or not worker.is_alive():
            return
        assert self._queue is not None
        while True:
            try:
                self._queue.put_nowait(_STOP)
                break
            except queue.Full:
                # Worker died with a backlog: drop one request and retry.
                try:
                    self._queue.get_nowait()
                except queue.Empty:
                    pass
                if not worker.is_alive():
                    break
        worker.join()

    def __enter__(self) -> "PrefetchingStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
