"""Persistent, budgeted, streaming replay-memory engine.

The paper's latent replay buffer, grown into a storage system: shards of
codec-compressed binary rasters on disk (``format``/``store``),
shard-granular reads that decode each touched shard once per call
(``stream``), and multi-store federation for long task sequences, whose
global byte budget caps the archive between steps by class-balanced
eviction (``federation``).

Bytes are counted one way: :func:`~repro.replaystore.format.latent_bytes`
(the paper's Fig. 12 model, one bit per stored cell plus 8 B per sample)
is what a buffer's ``storage_bytes``, a store's or federation's
``stats()`` and the federation budget all read.  Each store kind has one
report: :meth:`ReplayStore.stats` and :meth:`FederatedReplayStore.stats`
give modelled, codec-payload and on-disk bytes side by side.
``LatentReplayBuffer.to_store()`` and the run entry points with a
store-backed spec — ``NCLMethod.run(...,
replay=ReplaySpec(store_dir=...))`` and ``run_scenario`` likewise — are
the high-level faces; ``repro store`` is the CLI one.

Concurrency: mutations (append, filter, adopt, rebalance) are
file-locked read-modify-writes committed by an atomic index rename, and
a shard file name is never reused, so a reader with an old snapshot
either reads that snapshot's bytes or gets a
:class:`~repro.errors.StoreError` — never an ``OSError`` and never
another snapshot's bytes.  Readers take no locks and leave no files.
"""

from repro.replaystore.federation import FederatedReplayStore, FederationStats
from repro.replaystore.format import (
    CODEC_AER,
    CODEC_BITPACK,
    ShardHeader,
    choose_codec,
    codec_payload_bytes,
    decode_shard,
    encode_shard,
    latent_bytes,
    peek_header,
)
from repro.replaystore.store import (
    ReplayStore,
    ShardInfo,
    StoreMeta,
    StoreStats,
)
from repro.replaystore.stream import ReplayStream

__all__ = [
    "CODEC_AER",
    "CODEC_BITPACK",
    "ShardHeader",
    "choose_codec",
    "codec_payload_bytes",
    "latent_bytes",
    "encode_shard",
    "decode_shard",
    "peek_header",
    "ReplayStore",
    "ShardInfo",
    "StoreMeta",
    "StoreStats",
    "ReplayStream",
    "FederatedReplayStore",
    "FederationStats",
]
