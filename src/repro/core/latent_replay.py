"""Latent replay buffers: generation, compressed storage, materialisation.

A latent replay (LR) buffer holds the spike activations of the replay
subset ``TS_replay ⊆ TS_pre`` at the input of the LR insertion layer
(paper Fig. 6b).  It is generated once, by running the *frozen* front of
the pre-trained network (Alg. 1 lines 6-20), then replayed every NCL
epoch alongside the new-task activations.

Storage model
-------------
Stored rasters are binary, so the storage authority is the bit-packed
size (1 bit/cell) plus a fixed per-sample header (label + shape
metadata): :func:`~repro.replaystore.format.latent_bytes`, read by
:meth:`LatentReplayBuffer.storage_bytes`.  The Fig. 7
subsampling codec optionally reduces the stored frame count by its
factor; SpikingLR stores ``ceil(T/2)`` frames and zero-stuffs back to
``T`` for replay, Replay4NCL stores its reduced-timestep activations
as-is (factor 1, ``decompress=False``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.subsample import TemporalSubsampleCodec
from repro.data.datasets import SpikeDataset
from repro.errors import CodecError, ConfigError
from repro.replaystore.format import latent_bytes
from repro.replaystore.store import DEFAULT_SHARD_SAMPLES, ReplayStore
from repro.snn.network import ControllerFactory, SpikingNetwork
from repro.snn.state import SpikeTrace

__all__ = [
    "LatentReplayBuffer",
    "frozen_front_trace",
]


def frozen_front_trace(
    network: SpikingNetwork,
    insertion_layer: int,
    inputs: np.ndarray,
    controller: ControllerFactory | None = None,
) -> SpikeTrace:
    """Spike trace of one frozen-front pass over ``inputs``.

    The trace half of :meth:`SpikingNetwork.activations_at` (spike counts
    per layer feed the hardware cost model); empty for
    ``insertion_layer=0``.  The NCL run takes its traces from the passes
    it already makes, so this is a recomputation for checks and tools.
    """
    return network.activations_at(insertion_layer, inputs, controller)[1]


@dataclass
class LatentReplayBuffer:
    """Compressed latent activations of the replay subset.

    Attributes
    ----------
    compressed:
        ``[T_stored, N, C]`` binary raster of stored frames (time-major).
    labels:
        ``[N]`` labels of the replay samples.
    insertion_layer:
        Weight layer the activations feed (``Lins``).
    generated_timesteps:
        Timestep count the frozen part ran at during generation.
    codec:
        The temporal subsampling codec the buffer was stored with.
    """

    compressed: np.ndarray
    labels: np.ndarray
    insertion_layer: int
    generated_timesteps: int
    codec: TemporalSubsampleCodec

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        network: SpikingNetwork,
        replay_data: SpikeDataset,
        insertion_layer: int,
        timesteps: int,
        compression_factor: int = 1,
        controller: ControllerFactory | None = None,
    ) -> tuple["LatentReplayBuffer", SpikeTrace]:
        """Run the frozen front on the replay subset and store the result.

        Parameters
        ----------
        network:
            The pre-trained network (its layers below ``insertion_layer``
            act as the frozen feature extractor).
        replay_data:
            ``TS_replay`` — the stored subset of the pre-training set.
        timesteps:
            Temporal resolution of generation: 100 for SpikingLR, the
            reduced ``T*`` for Replay4NCL.
        compression_factor:
            Fig. 7 subsampling factor applied before storage.
        controller:
            Optional adaptive threshold controller active while the
            frozen part generates activations (Alg. 1 lines 8-19).

        The result is ``(buffer, trace)``: the buffer and the
        :class:`~repro.snn.state.SpikeTrace` of the one frozen-front
        pass that made it (the op-accounting input; empty for
        ``insertion_layer=0``).
        """
        if len(replay_data) == 0:
            raise ConfigError("replay dataset is empty")
        activations, trace = network.activations_at(
            insertion_layer, replay_data.to_dense(timesteps), controller=controller
        )
        codec = TemporalSubsampleCodec(compression_factor)
        buffer = cls(
            compressed=codec.compress(activations),
            labels=replay_data.labels.copy(),
            insertion_layer=insertion_layer,
            generated_timesteps=timesteps,
            codec=codec,
        )
        return buffer, trace

    @classmethod
    def generate_into_store(
        cls,
        network: SpikingNetwork,
        replay_data: SpikeDataset,
        root,
        *,
        insertion_layer: int,
        timesteps: int,
        compression_factor: int = 1,
        controller: ControllerFactory | None = None,
        shard_samples: int | None = None,
        overwrite: bool = False,
    ) -> tuple[ReplayStore, SpikeTrace]:
        """Generate latent data into an on-disk replay store at ``root``.

        :meth:`generate`, then :meth:`to_store`.  Returns
        ``(store, trace)`` with the trace of the generation pass; nothing
        is written when generation fails.
        """
        buffer, trace = cls.generate(
            network,
            replay_data,
            insertion_layer=insertion_layer,
            timesteps=timesteps,
            compression_factor=compression_factor,
            controller=controller,
        )
        store = buffer.to_store(root, shard_samples=shard_samples, overwrite=overwrite)
        return store, trace

    def __post_init__(self):
        if self.compressed.ndim != 3:
            raise CodecError(
                f"compressed buffer must be [T, N, C], got shape {self.compressed.shape}"
            )
        if self.labels.shape[0] != self.compressed.shape[1]:
            raise CodecError(
                f"{self.labels.shape[0]} labels for {self.compressed.shape[1]} samples"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        """Stored replay samples."""
        return int(self.compressed.shape[1])

    @property
    def num_channels(self) -> int:
        """Input channels per stored frame."""
        return int(self.compressed.shape[2])

    @property
    def stored_frames(self) -> int:
        """Frames kept per sample after compression."""
        return int(self.compressed.shape[0])

    def storage_bytes(self) -> int:
        """Latent memory footprint: bit-packed payload + per-sample headers.

        This is the quantity behind the paper's latent-memory comparison
        (Fig. 12): SpikingLR stores ``ceil(100/2) = 50`` frames/sample,
        Replay4NCL stores ``T* = 40`` — a 20% saving, slightly more once
        the fixed headers are amortised over fewer frames.
        """
        return latent_bytes(self.stored_frames, self.num_samples, self.num_channels)

    # ------------------------------------------------------------------
    # Persistence (repro.replaystore)
    # ------------------------------------------------------------------
    def to_store(
        self,
        root,
        shard_samples: int | None = None,
        overwrite: bool = False,
    ) -> ReplayStore:
        """Persist this buffer as a sharded on-disk replay store.

        The dense raster is chunked into shards of ``shard_samples``
        columns (``replaystore`` default when None), each encoded with
        the smaller of the bitpack/address-event codecs for its density.
        The codecs are lossless: reading the store back with
        :class:`~repro.replaystore.stream.ReplayStream` gives
        :meth:`materialize`'s raster exactly.
        """
        store = ReplayStore.create(
            root,
            stored_frames=self.stored_frames,
            num_channels=self.num_channels,
            generated_timesteps=self.generated_timesteps,
            insertion_layer=self.insertion_layer,
            codec_factor=self.codec.factor,
            shard_samples=shard_samples or DEFAULT_SHARD_SAMPLES,
            overwrite=overwrite,
        )
        store.append(self.compressed, self.labels)
        return store

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def materialize(self, decompress: bool) -> np.ndarray:
        """Return the replay raster ``[T, N, C]`` for NCL training.

        ``decompress=True`` zero-stuffs back to ``generated_timesteps``
        (the SpikingLR cycle); ``decompress=False`` replays the stored
        frames directly (Replay4NCL — only valid when the codec factor is
        1, i.e. the stored frames already *are* the training resolution)
        as a read-only float32 view, so no copy of the buffer is made.
        """
        if decompress:
            return self.codec.decompress(self.compressed, self.generated_timesteps)
        if self.codec.factor != 1:
            raise CodecError(
                "cannot replay subsampled frames without decompression: "
                f"codec factor is {self.codec.factor}"
            )
        frames = self.compressed.astype(np.float32, copy=False).view()
        frames.flags.writeable = False
        return frames

    def decompressed_cells_per_replay(self, decompress: bool) -> int:
        """Raster cells written by one decompression pass (cost model)."""
        if not decompress:
            return 0
        return int(
            self.generated_timesteps * self.num_samples * self.num_channels
        )
