"""Binary shard format for persisted latent-replay rasters.

A shard is the unit of storage and of replay-time decoding: one
``[T_stored, n, C]`` binary raster plus its ``n`` labels, serialised as

========  =====  =====================================================
offset    size   field
========  =====  =====================================================
0         4      magic ``b"RSHD"``
4         1      format version (:data:`SHARD_VERSION`)
5         1      codec id (0 = bitpack, 1 = address-event)
6         2      reserved (zero)
8         4      ``T_stored`` (uint32 LE)
12        4      ``n`` samples (uint32 LE)
16        4      ``C`` channels (uint32 LE)
20        8      payload length in bytes (uint64 LE)
28        8*n    labels (int64 LE)
28+8*n    —      codec payload
========  =====  =====================================================

The codec is chosen **per shard** by density: sparse shards store
``(t, flat_cell)`` address events (6 bytes/event), dense shards store a
1-bit/cell bitmap — whichever is smaller for the actual spike count.
Both are lossless, so a decode always reproduces the float32 raster
bit-for-bit (the store-backed training path depends on this).

The latent-memory ledger (paper Fig. 12) is defined here too, once:
:func:`latent_bytes` charges one bit per stored cell plus a fixed
header per sample.  Buffers, store and federation reports and the
federation's byte budget all read it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.compression.bitpack import BitpackCodec
from repro.compression.sparse import AddressEventCodec
from repro.errors import StoreError

__all__ = [
    "SHARD_MAGIC",
    "SHARD_VERSION",
    "CODEC_BITPACK",
    "CODEC_AER",
    "ShardHeader",
    "choose_codec",
    "codec_payload_bytes",
    "latent_bytes",
    "encode_shard",
    "decode_shard",
    "peek_header",
    "payload_offset",
]

SHARD_MAGIC = b"RSHD"
SHARD_VERSION = 1

CODEC_BITPACK = "bitpack"
CODEC_AER = "aer"

_CODEC_IDS = {CODEC_BITPACK: 0, CODEC_AER: 1}
_CODEC_NAMES = {v: k for k, v in _CODEC_IDS.items()}

#: ``magic | version | codec | reserved | T | n | C | payload_len``.
_HEADER = struct.Struct("<4sBBHIIIQ")

#: Event coordinate widths: uint16 timestep, uint32 flattened
#: ``sample*C + channel`` cell index (shards can exceed 65536 cells).
_AER_TIME_BYTES = 2
_AER_CELL_BYTES = 4
_AER = AddressEventCodec(time_bytes=_AER_TIME_BYTES, channel_bytes=_AER_CELL_BYTES)
_BITPACK = BitpackCodec()


@dataclass(frozen=True)
class ShardHeader:
    """Decoded fixed-size shard header."""

    codec: str
    stored_frames: int
    num_samples: int
    num_channels: int
    payload_bytes: int


def payload_offset(num_samples: int) -> int:
    """Byte offset of the codec payload within a shard blob."""
    if num_samples <= 0:
        raise StoreError(f"shard must hold >= 1 sample, got {num_samples}")
    return _HEADER.size + 8 * num_samples


def codec_payload_bytes(raster: np.ndarray) -> dict[str, int]:
    """Payload size of each codec for ``raster`` (the density decision)."""
    raster = np.asarray(raster)
    bitmap = _BITPACK.packed_bytes(raster.shape)
    events = _AER.compressed_bytes(int(raster.sum()))
    return {CODEC_BITPACK: bitmap, CODEC_AER: events}


#: Per-sample metadata charge (label + shape bookkeeping) of the Fig. 12
#: storage model.
SAMPLE_HEADER_BYTES = 8


def latent_bytes(frames: int, samples: int, channels: int) -> int:
    """Modelled bytes of ``samples`` latent rasters of ``frames x channels``.

    The Fig. 12 storage model: the whole ``[frames, samples, channels]``
    raster bit-packed, ``ceil(frames*samples*channels / 8)`` bytes, plus
    an 8-byte header per sample.
    """
    if samples == 0:
        return 0
    payload = _BITPACK.packed_bytes((frames, samples, channels))
    return payload + SAMPLE_HEADER_BYTES * samples


def choose_codec(raster: np.ndarray) -> str:
    """Pick the smaller lossless encoding for this shard's density."""
    sizes = codec_payload_bytes(raster)
    return CODEC_AER if sizes[CODEC_AER] < sizes[CODEC_BITPACK] else CODEC_BITPACK


def _validate_raster(raster: np.ndarray) -> np.ndarray:
    raster = np.asarray(raster)
    if raster.ndim != 3:
        raise StoreError(f"shard raster must be [T, n, C], got shape {raster.shape}")
    if min(raster.shape) == 0:
        raise StoreError(f"shard raster must be non-empty, got shape {raster.shape}")
    if raster.shape[0] >= 256**_AER_TIME_BYTES:
        raise StoreError(
            f"{raster.shape[0]} frames exceed the uint16 timestep coordinate"
        )
    if raster.shape[1] * raster.shape[2] >= 256**_AER_CELL_BYTES:
        raise StoreError(f"shard {raster.shape} exceeds the uint32 cell coordinate")
    return raster


def encode_shard(raster: np.ndarray, labels: np.ndarray) -> bytes:
    """Serialise one shard; codec chosen by :func:`choose_codec`."""
    raster = _validate_raster(raster)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.shape[0] != raster.shape[1]:
        raise StoreError(
            f"{labels.shape} labels incompatible with raster {raster.shape}"
        )
    codec = choose_codec(raster)
    if codec == CODEC_AER:
        times, cells, _ = _AER.compress(raster)
        payload = (
            times.astype("<u2").tobytes() + cells.astype("<u4").tobytes()
        )
    else:
        packed, _ = _BITPACK.compress(raster)
        payload = packed.tobytes()
    header = _HEADER.pack(
        SHARD_MAGIC,
        SHARD_VERSION,
        _CODEC_IDS[codec],
        0,
        raster.shape[0],
        raster.shape[1],
        raster.shape[2],
        len(payload),
    )
    return header + labels.astype("<i8").tobytes() + payload


def peek_header(blob: bytes) -> ShardHeader:
    """Parse and validate the fixed-size header of a shard blob."""
    if len(blob) < _HEADER.size:
        raise StoreError(f"shard blob of {len(blob)} B is shorter than the header")
    magic, version, codec_id, _, frames, samples, channels, payload = _HEADER.unpack(
        blob[: _HEADER.size]
    )
    if magic != SHARD_MAGIC:
        raise StoreError(f"bad shard magic {magic!r} (expected {SHARD_MAGIC!r})")
    if version != SHARD_VERSION:
        raise StoreError(f"unsupported shard version {version}")
    if codec_id not in _CODEC_NAMES:
        raise StoreError(f"unknown shard codec id {codec_id}")
    return ShardHeader(
        codec=_CODEC_NAMES[codec_id],
        stored_frames=int(frames),
        num_samples=int(samples),
        num_channels=int(channels),
        payload_bytes=int(payload),
    )


def decode_shard(blob: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Exact inverse of :func:`encode_shard`: ``(raster, labels)``."""
    header = peek_header(blob)
    offset = payload_offset(header.num_samples)
    expected = offset + header.payload_bytes
    if len(blob) < expected:
        raise StoreError(f"shard blob truncated: {len(blob)} B < {expected} B")
    labels = np.frombuffer(
        blob, dtype="<i8", count=header.num_samples, offset=_HEADER.size
    ).astype(np.int64)
    payload = blob[offset:expected]
    shape = (header.stored_frames, header.num_samples, header.num_channels)
    if header.codec == CODEC_AER:
        if header.payload_bytes % _AER.bytes_per_event:
            raise StoreError(
                f"AER payload of {header.payload_bytes} B is not a whole "
                f"number of {_AER.bytes_per_event}-byte events"
            )
        num_events = header.payload_bytes // _AER.bytes_per_event
        times = np.frombuffer(payload, dtype="<u2", count=num_events)
        cells = np.frombuffer(
            payload, dtype="<u4", count=num_events, offset=num_events * _AER_TIME_BYTES
        )
        raster = _AER.decompress(
            times.astype(np.uint32), cells.astype(np.uint32), shape
        )
    else:
        packed = np.frombuffer(payload, dtype=np.uint8)
        raster = _BITPACK.decompress(packed, shape)
    return raster, labels
