"""Shard-granular replay reads.

:class:`ReplayStream` is the replay-time view of a
:class:`~repro.replaystore.store.ReplayStore`: ``gather`` serves an
arbitrary sample subset, ``materialize`` the whole stream and iteration
one shard at a time.  No decoded shard outlives the call that decoded
it, so each call reads, checks and decodes every shard it touches
exactly once.  The store-backed NCL path materializes a step's replay
set once per run and trains on that raster, as the dense path does.
"""

from __future__ import annotations

import os

import numpy as np

from repro import obs
from repro.compression.subsample import TemporalSubsampleCodec
from repro.errors import StoreError
from repro.replaystore.store import INDEX_NAME, ReplayStore

__all__ = ["ReplayStream"]


class ReplayStream:
    """Decoded view over a store's samples, pinned to one snapshot.

    Parameters
    ----------
    store:
        The backing shard set.
    decompress:
        Mirror of :meth:`LatentReplayBuffer.materialize`'s flag:
        ``True`` zero-stuffs each shard back to
        ``meta.generated_timesteps`` (the SpikingLR cycle); ``False``
        serves stored frames directly (requires codec factor 1).
    """

    def __init__(self, store: ReplayStore, decompress: bool = False):
        if not decompress and store.meta.codec_factor != 1:
            raise StoreError(
                "cannot stream subsampled frames without decompression: "
                f"store codec factor is {store.meta.codec_factor}"
            )
        self.store = store
        self.decompress = bool(decompress)
        self._codec = TemporalSubsampleCodec(store.meta.codec_factor)
        # Snapshot of the shard table at construction: the stream's
        # index->shard mapping is only valid against this exact table,
        # so a mutated store must fail loudly rather than serve stale or
        # misrouted samples.
        self._signature = [(s.file, s.num_samples) for s in store.shards]
        self._num_samples = store.num_samples
        # Sample index -> (shard, column) without touching payloads.
        bounds = np.cumsum([n for _, n in self._signature])
        self._bounds = np.concatenate([[0], bounds]).astype(np.int64)
        # Every index commit is an atomic rename, so the index inode
        # identifies the snapshot: a cross-handle mutation (a filter in
        # another thread or process) is one stat away.  Should the
        # filesystem recycle an inode number, never-reused shard names
        # still keep reads on this snapshot's bytes (or a StoreError).
        stat = os.stat(store.root / INDEX_NAME)
        self._index_id = (stat.st_dev, stat.st_ino)

    def _check_not_stale(self) -> None:
        current = [(s.file, s.num_samples) for s in self.store.shards]
        if current != self._signature:
            raise StoreError(
                "store was mutated (append/filter) after this ReplayStream "
                "was created; open a fresh stream"
            )
        try:
            stat = os.stat(self.store.root / INDEX_NAME)
        except OSError as error:
            raise StoreError(
                f"store was mutated: index vanished from {self.store.root} "
                f"after this ReplayStream was created: {error}"
            ) from error
        if (stat.st_dev, stat.st_ino) != self._index_id:
            raise StoreError(
                "store was mutated by another handle after this ReplayStream "
                "was created; open a fresh stream"
            )

    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        """Sample count pinned when the stream was opened."""
        return self._num_samples

    @property
    def timesteps(self) -> int:
        """Frames per served sample (post-decompression if enabled)."""
        if self.decompress:
            return self.store.meta.generated_timesteps
        return self.store.meta.stored_frames

    @property
    def num_channels(self) -> int:
        """Channels per sample, from the store metadata."""
        return self.store.meta.num_channels

    @property
    def shape(self) -> tuple[int, int, int]:
        """Logical ``[T, n, C]`` shape of the streamed tensor."""
        return (self.timesteps, self.num_samples, self.num_channels)

    @property
    def labels(self) -> np.ndarray:
        """Labels of the stream's snapshot (stale-stream checked)."""
        self._check_not_stale()
        return self.store.labels

    # ------------------------------------------------------------------
    def _decoded(self, shard_id: int) -> np.ndarray:
        """Read, check and (optionally) decompress one shard."""
        self._check_not_stale()
        raster, _ = self.store.read_shard(shard_id)
        if self.decompress:
            raster = self._codec.decompress(
                raster, self.store.meta.generated_timesteps
            )
        return raster

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Decode the requested samples into a ``[T, k, C]`` raster.

        Output column ``j`` is sample ``indices[j]``; duplicate and
        unsorted indices behave exactly like numpy fancy indexing on the
        dense buffer.  Each touched shard is decoded once per call.
        """
        self._check_not_stale()
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise StoreError(f"indices must be 1-D, got shape {indices.shape}")
        if indices.size and (
            indices.min() < 0 or indices.max() >= self.num_samples
        ):
            raise StoreError(
                f"indices out of range [0, {self.num_samples}) "
                f"(got [{indices.min()}, {indices.max()}])"
            )
        out = np.empty(
            (self.timesteps, indices.size, self.num_channels), dtype=np.float32
        )
        shard_of = np.searchsorted(self._bounds, indices, side="right") - 1
        needed = np.unique(shard_of)
        with obs.span(
            "store.gather", category="store", samples=int(indices.size), shards=len(needed)
        ):
            for shard_id in needed:
                raster = self._decoded(int(shard_id))
                mask = shard_of == shard_id
                cols = indices[mask] - self._bounds[shard_id]
                out[:, mask, :] = raster[:, cols, :]
        return out

    def __iter__(self):
        """Yield ``(raster, labels)`` shard by shard, in storage order."""
        self._check_not_stale()
        for shard_id in range(len(self._signature)):
            raster = self._decoded(shard_id)
            labels = np.asarray(self.store.shards[shard_id].labels, dtype=np.int64)
            yield raster, labels

    def materialize(self) -> np.ndarray:
        """Densify the whole stream into one ``[T, n, C]`` raster."""
        return self.gather(np.arange(self.num_samples))

