"""The chunked, file-backed replay store.

A store is a directory::

    store/
      index.json             # metadata + shard table (labels, sizes, offsets)
      shard-00000.bin        # one encoded shard per file (format.py)
      shard-00001.bin
      shard-g001-00000.bin   # written by the first filter
      ...

The index is the lookup authority: it carries per-shard sample counts,
labels, codec choice, and payload byte offsets, so listing, budgeting
and class statistics never touch shard payloads.  Shard files are only
read when their samples are actually replayed (see ``stream.py``).

Shards are immutable once written; mutation happens by appending new
shards or by :meth:`ReplayStore.filter`, the one rewrite, which keeps a
subset of the samples and re-shards them as the next *generation* at
``meta.shard_samples`` per shard.

Concurrency: every mutation is a read-modify-write of the on-disk
index under an exclusive :class:`~repro.ioutil.FileLock`
(``index.json.lock``), committed by atomically renaming ``index.json``;
files a rewrite supersedes are unlinked right after the commit.  Readers
stay safe because **a shard file name is never reused**: names stamp the
generation (bumped by every rewrite) and the position in that
generation's table, which only grows.  A handle with an older snapshot
thus reads that snapshot's exact bytes or finds the file gone, which
:meth:`ReplayStore.read_shard` reports as
:class:`~repro.errors.StoreError`.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from repro import obs
from repro.errors import StoreError
from repro.ioutil import atomic_write_json, locked
from repro.replaystore.format import decode_shard, encode_shard, latent_bytes, peek_header

__all__ = [
    "StoreMeta",
    "ShardInfo",
    "StoreStats",
    "ReplayStore",
    "INDEX_NAME",
    "LOCK_NAME",
    "read_index",
]

INDEX_NAME = "index.json"
#: Lock file guarding index read-modify-write (never renamed, unlike
#: the index itself, so the locked inode is stable).
LOCK_NAME = "index.json.lock"
INDEX_VERSION = 1

#: Default samples per shard: the unit of encoding, decoding and
#: eviction-driven rewrites.
DEFAULT_SHARD_SAMPLES = 64

_Parsed = TypeVar("_Parsed")


def read_index(
    path: Path, version: int, kind: str, parse: Callable[[dict], _Parsed]
) -> _Parsed:
    """Load the JSON index at ``path`` and ``parse`` its payload object.

    Shared by the store and federation indexes so damage is handled in
    one place: a missing file, bad JSON, a non-object payload, a foreign
    ``version``, or any structural or type error ``parse`` hits all
    raise :class:`~repro.errors.StoreError` naming ``kind`` ("replay
    store", "federation").
    """
    if not path.exists():
        raise StoreError(f"no {kind} at {path.parent} (missing {path.name})")
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise StoreError(f"corrupt {kind} index at {path}: {error}") from error
    try:
        if payload.get("version") != version:
            raise StoreError(f"unsupported {kind} index version {payload.get('version')!r}")
        return parse(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise StoreError(f"malformed {kind} index at {path}: {error!r}") from error


def _shard_name(generation: int, position: int) -> str:
    """File name of the shard at ``position`` of a ``generation`` table."""
    stamp = f"g{generation:03d}-" if generation else ""
    return f"shard-{stamp}{position:05d}.bin"


@dataclass(frozen=True)
class StoreMeta:
    """Geometry and provenance of the stored latent data."""

    stored_frames: int
    num_channels: int
    generated_timesteps: int
    insertion_layer: int = 0
    codec_factor: int = 1
    shard_samples: int = DEFAULT_SHARD_SAMPLES

    def __post_init__(self):
        if self.stored_frames <= 0 or self.num_channels <= 0:
            raise StoreError(
                f"store geometry must be positive, got T={self.stored_frames} "
                f"C={self.num_channels}"
            )
        if self.generated_timesteps <= 0:
            raise StoreError(
                f"generated_timesteps must be positive, got {self.generated_timesteps}"
            )
        if self.codec_factor < 1:
            raise StoreError(f"codec_factor must be >= 1, got {self.codec_factor}")
        if self.shard_samples <= 0:
            raise StoreError(f"shard_samples must be positive, got {self.shard_samples}")


@dataclass
class ShardInfo:
    """One row of the index's shard table."""

    file: str
    num_samples: int
    codec: str
    payload_bytes: int
    payload_offset: int
    labels: list[int] = field(default_factory=list)


class ByteReport:
    """Model-vs-disk byte accounting shared by the store and federation reports.

    Subclasses carry ``modelled_bytes`` (the Fig. 12 ledger,
    :func:`~repro.replaystore.format.latent_bytes`), ``payload_bytes``
    (what the per-shard codecs encoded; the denser codec is chosen per
    shard, so it undercuts the bitmap model up to padding) and
    ``disk_bytes`` (shard files and indexes on disk).
    """

    @property
    def payload_saving(self) -> float:
        """Fractional saving of the codec payload vs the modelled bytes."""
        if not self.modelled_bytes:
            return 0.0
        return 1.0 - self.payload_bytes / self.modelled_bytes

    @property
    def format_overhead_bytes(self) -> int:
        """Index + shard-header bytes on top of the raw codec payload."""
        return self.disk_bytes - self.payload_bytes


@dataclass(frozen=True)
class StoreStats(ByteReport):
    """The one report on a store (the ``repro store stats`` payload)."""

    num_shards: int
    num_samples: int
    stored_frames: int
    num_channels: int
    codec_shards: dict[str, int]
    modelled_bytes: int
    payload_bytes: int
    disk_bytes: int
    class_counts: dict[int, int]

    @property
    def bytes_per_sample(self) -> float:
        """Mean packed payload bytes per stored sample."""
        return self.payload_bytes / self.num_samples if self.num_samples else 0.0


def _parse_shard(entry: dict) -> ShardInfo:
    """One typed shard-table row (structural errors propagate)."""
    file = entry["file"]
    if not isinstance(file, str) or not file.startswith("shard-") or Path(file).name != file:
        raise StoreError(f"shard file must be a plain shard-* name, got {file!r}")
    if not isinstance(entry["codec"], str):
        raise StoreError(f"shard codec must be a string, got {entry['codec']!r}")
    info = ShardInfo(
        file=file,
        num_samples=operator.index(entry["num_samples"]),
        codec=entry["codec"],
        payload_bytes=operator.index(entry["payload_bytes"]),
        payload_offset=operator.index(entry["payload_offset"]),
        labels=[operator.index(v) for v in entry["labels"]],
    )
    if len(info.labels) != info.num_samples:
        raise StoreError(
            f"shard {file} lists {len(info.labels)} labels for "
            f"{info.num_samples} samples"
        )
    return info


def _parse_index(path: Path) -> tuple[StoreMeta, list[ShardInfo], int]:
    """Meta, shard table and generation of the store index at ``path``.

    The one parser of ``index.json``.  Fields this version no longer
    uses (e.g. ``tombstones``) are ignored.
    """

    def parse(payload: dict) -> tuple[StoreMeta, list[ShardInfo], int]:
        meta, shards = payload["meta"], payload["shards"]
        if not isinstance(shards, list):
            raise StoreError(f"shard table must be a list, got {shards!r}")
        return (
            StoreMeta(**{key: operator.index(value) for key, value in meta.items()}),
            [_parse_shard(entry) for entry in shards],
            operator.index(payload.get("generation", 0)),
        )

    return read_index(path, INDEX_VERSION, "replay store", parse)


class ReplayStore:
    """Persistent shard set + index over one latent-replay buffer."""

    def __init__(
        self,
        root: Path,
        meta: StoreMeta,
        shards: list[ShardInfo],
        generation: int = 0,
    ):
        self.root = Path(root)
        self.meta = meta
        self.shards = shards
        #: Bumped by every rewrite (:meth:`filter`); shard names carry
        #: it, so no file name is ever reused.
        self.generation = int(generation)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        root: str | Path,
        *,
        stored_frames: int,
        num_channels: int,
        generated_timesteps: int,
        insertion_layer: int = 0,
        codec_factor: int = 1,
        shard_samples: int = DEFAULT_SHARD_SAMPLES,
        overwrite: bool = False,
    ) -> "ReplayStore":
        """Initialise an empty store directory (refuses to clobber one).

        ``overwrite=True`` continues the replaced store's generation
        count (when its index is readable), so the new store's shard
        names never repeat the old one's.
        """
        root = Path(root)
        index_path = root / INDEX_NAME
        meta = StoreMeta(
            stored_frames=stored_frames,
            num_channels=num_channels,
            generated_timesteps=generated_timesteps,
            insertion_layer=insertion_layer,
            codec_factor=codec_factor,
            shard_samples=shard_samples,
        )
        store = cls(root, meta, [])
        with locked(root / LOCK_NAME):
            if index_path.exists():
                if not overwrite:
                    raise StoreError(
                        f"store already exists at {root} (pass overwrite=True to replace)"
                    )
                try:
                    store.generation = _parse_index(index_path)[2] + 1
                except StoreError:
                    pass  # unreadable index: replace it, nothing to continue
            root.mkdir(parents=True, exist_ok=True)
            store._commit(sweep=overwrite)
        return store

    @classmethod
    def open(cls, root: str | Path) -> "ReplayStore":
        """Load an existing store from its index."""
        root = Path(root)
        return cls(root, *_parse_index(root / INDEX_NAME))

    def _reload(self) -> None:
        """Refresh this handle from the on-disk index.

        Called at the start of every locked mutation so read-modify-write
        cycles from concurrent handles compose instead of clobbering each
        other (the second writer starts from the first writer's commit).
        """
        self.meta, self.shards, self.generation = _parse_index(self.root / INDEX_NAME)

    def _commit(self, sweep: bool) -> None:
        """Atomically replace the index; then, if ``sweep``, drop dead shards.

        The index rename is the commit point.  Every shard writer holds
        the index lock, so under it any ``shard-*.bin`` the committed
        table does not name is garbage: a file the commit superseded, or
        an orphan of an interrupted mutation.  Caller holds the lock.
        """
        payload = {
            "version": INDEX_VERSION,
            "generation": self.generation,
            "meta": {
                "stored_frames": self.meta.stored_frames,
                "num_channels": self.meta.num_channels,
                "generated_timesteps": self.meta.generated_timesteps,
                "insertion_layer": self.meta.insertion_layer,
                "codec_factor": self.meta.codec_factor,
                "shard_samples": self.meta.shard_samples,
            },
            "shards": [
                {
                    "file": s.file,
                    "num_samples": s.num_samples,
                    "codec": s.codec,
                    "payload_bytes": s.payload_bytes,
                    "payload_offset": s.payload_offset,
                    "labels": list(map(int, s.labels)),
                }
                for s in self.shards
            ],
        }
        atomic_write_json(self.root / INDEX_NAME, payload)
        if sweep:
            live = {s.file for s in self.shards}
            for path in self.root.glob("shard-*.bin"):
                if path.name not in live:
                    path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of shard files in the store."""
        return len(self.shards)

    @property
    def num_samples(self) -> int:
        """Total samples across every shard."""
        return sum(s.num_samples for s in self.shards)

    @property
    def labels(self) -> np.ndarray:
        """All labels in storage order (index-only, no shard reads)."""
        if not self.shards:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(
            [np.asarray(s.labels, dtype=np.int64) for s in self.shards]
        )

    def payload_bytes(self) -> int:
        """Codec payload bytes across all shards (index accounting)."""
        return sum(s.payload_bytes for s in self.shards)

    def disk_bytes(self) -> int:
        """Actual bytes on disk: shard files plus the index itself."""
        try:
            total = (self.root / INDEX_NAME).stat().st_size
            for shard in self.shards:
                total += (self.root / shard.file).stat().st_size
        except OSError as error:
            raise StoreError(
                f"store was mutated by another handle while measuring "
                f"disk usage at {self.root}: {error}"
            ) from error
        return total

    def stats(self) -> StoreStats:
        """Aggregate :class:`StoreStats` over shards and classes."""
        codec_shards: dict[str, int] = {}
        class_counts: dict[int, int] = {}
        for shard in self.shards:
            codec_shards[shard.codec] = codec_shards.get(shard.codec, 0) + 1
            for label in shard.labels:
                class_counts[int(label)] = class_counts.get(int(label), 0) + 1
        return StoreStats(
            num_shards=self.num_shards,
            num_samples=self.num_samples,
            stored_frames=self.meta.stored_frames,
            num_channels=self.meta.num_channels,
            codec_shards=codec_shards,
            modelled_bytes=latent_bytes(
                self.meta.stored_frames, self.num_samples, self.meta.num_channels
            ),
            payload_bytes=self.payload_bytes(),
            disk_bytes=self.disk_bytes(),
            class_counts=dict(sorted(class_counts.items())),
        )

    # ------------------------------------------------------------------
    # Shard I/O
    # ------------------------------------------------------------------
    def append(self, raster: np.ndarray, labels: np.ndarray) -> list[int]:
        """Persist ``[T_stored, n, C]`` samples as one or more new shards.

        The raster is split into chunks of ``meta.shard_samples`` columns;
        each chunk becomes an immutable shard file.  Returns the new shard
        ids.
        """
        raster = np.asarray(raster)
        labels = np.asarray(labels)
        if raster.ndim != 3:
            raise StoreError(f"append expects [T, n, C], got shape {raster.shape}")
        if raster.shape[0] != self.meta.stored_frames:
            raise StoreError(
                f"raster has {raster.shape[0]} frames, store holds "
                f"{self.meta.stored_frames}"
            )
        if raster.shape[2] != self.meta.num_channels:
            raise StoreError(
                f"raster has {raster.shape[2]} channels, store holds "
                f"{self.meta.num_channels}"
            )
        if labels.ndim != 1 or labels.shape[0] != raster.shape[1]:
            raise StoreError(
                f"{labels.shape} labels incompatible with raster {raster.shape}"
            )
        with locked(self.root / LOCK_NAME):
            self._reload()
            first = len(self.shards)
            for start in range(0, raster.shape[1], self.meta.shard_samples):
                chunk = raster[:, start : start + self.meta.shard_samples, :]
                chunk_labels = labels[start : start + self.meta.shard_samples]
                self.shards.append(self._write_shard(chunk, chunk_labels, len(self.shards)))
            self._commit(sweep=False)
        return list(range(first, len(self.shards)))

    def _write_shard(
        self, raster: np.ndarray, labels: np.ndarray, position: int
    ) -> ShardInfo:
        """Encode one shard to its never-reused file; returns its row."""
        with obs.span("store.encode_shard", category="store", shard=position) as sp:
            blob = encode_shard(raster, labels)
            sp.set(bytes=len(blob), samples=int(raster.shape[1]))
        obs.count("store.bytes_encoded", len(blob))
        obs.count("store.shards_encoded")
        header = peek_header(blob)
        name = _shard_name(self.generation, position)
        (self.root / name).write_bytes(blob)
        return ShardInfo(
            file=name,
            num_samples=header.num_samples,
            codec=header.codec,
            payload_bytes=header.payload_bytes,
            payload_offset=len(blob) - header.payload_bytes,
            labels=[int(v) for v in labels],
        )

    def read_shard(self, shard_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Decode one shard to its dense ``[T_stored, n, C]`` raster."""
        if not 0 <= shard_id < len(self.shards):
            raise StoreError(
                f"shard {shard_id} out of range (store has {len(self.shards)})"
            )
        info = self.shards[shard_id]
        path = self.root / info.file
        with obs.span("store.decode_shard", category="store", shard=shard_id) as sp:
            try:
                blob = path.read_bytes()
            except OSError as error:
                raise StoreError(
                    f"shard file {info.file} is gone — store was mutated by "
                    f"another handle (filtered or rebuilt); "
                    f"reopen the store to see its current state: {error}"
                ) from error
            sp.set(bytes=len(blob))
            raster, labels = decode_shard(blob)
        obs.count("store.bytes_decoded", len(blob))
        obs.count("store.shards_decoded")
        if raster.shape[1] != info.num_samples or not np.array_equal(
            labels, np.asarray(info.labels, dtype=np.int64)
        ):
            raise StoreError(f"shard {shard_id} disagrees with the index")
        return raster, labels

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def filter(self, keep: np.ndarray) -> int:
        """Keep only the samples at global indices ``keep``; returns evictions.

        ``keep`` indexes the store's global sample order (storage order,
        the order :attr:`labels` uses); kept samples preserve that order.
        This is the eviction primitive of cross-store rebalancing: a
        federation decides *which* samples survive, ``filter`` rewrites
        the shard set to hold exactly those at ``meta.shard_samples`` per
        shard.  Filtering to the full index set is a no-op (no rewrite).

        The rewrite streams shard by shard, so peak memory stays at ~2
        shards, and is crash-safe: the survivors are written as the next
        generation under names no committed index has referenced, the
        atomic index rename is the commit point, and only then are the
        old generation's files removed.  A crash anywhere leaves a store
        that opens cleanly; the next rewrite removes the interrupted
        generation's orphaned files.
        """
        keep = np.asarray(keep, dtype=np.int64)
        if keep.ndim != 1:
            raise StoreError(f"keep indices must be 1-D, got shape {keep.shape}")
        with locked(self.root / LOCK_NAME):
            self._reload()
            total = self.num_samples
            if keep.size:
                if keep.min() < 0 or keep.max() >= total:
                    raise StoreError(
                        f"keep indices out of range [0, {total}) "
                        f"(got [{keep.min()}, {keep.max()}])"
                    )
                if np.any(np.diff(keep) <= 0):
                    raise StoreError("keep indices must be strictly increasing")
            if keep.size == total:
                return 0

            self.generation += 1
            target = self.meta.shard_samples
            staged: list[ShardInfo] = []
            raster = np.zeros(
                (self.meta.stored_frames, 0, self.meta.num_channels), dtype=np.float32
            )
            labels = np.zeros(0, dtype=np.int64)
            offset = 0
            for shard_id, info in enumerate(self.shards):
                local = keep[(keep >= offset) & (keep < offset + info.num_samples)]
                local -= offset
                offset += info.num_samples
                if not local.size:
                    continue
                part_raster, part_labels = self.read_shard(shard_id)
                raster = np.concatenate([raster, part_raster[:, local, :]], axis=1)
                labels = np.concatenate([labels, part_labels[local]])
                while labels.size >= target:
                    staged.append(
                        self._write_shard(raster[:, :target], labels[:target], len(staged))
                    )
                    raster, labels = raster[:, target:], labels[target:]
            if labels.size:
                staged.append(self._write_shard(raster, labels, len(staged)))
            self.shards = staged
            self._commit(sweep=True)
        return total - int(keep.size)

    def __repr__(self) -> str:
        return (
            f"ReplayStore(root={str(self.root)!r}, shards={self.num_shards}, "
            f"samples={self.num_samples})"
        )
