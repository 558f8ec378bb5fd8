"""Store-backed NCL runs: disk-resident replay, bitwise-identical training.

The acceptance bar for the replaystore subsystem: running a full NCL
phase with the replay buffer on disk (``ReplaySpec(store_dir=...)``) must
reproduce the in-memory path **exactly** — same losses, same accuracy
curve, same final weights — because the shard codecs are lossless and
the minibatch schedule is unchanged.  The run reads its store back once:
every shard is decoded exactly once, however many epochs train on it.
"""

import weakref

import numpy as np
import pytest

from repro import obs
from repro.core import Replay4NCL, ReplaySpec, SpikingLR
from repro.core.raw_replay import RawInputReplay
from repro.core.latent_replay import LatentReplayBuffer, frozen_front_trace
from repro.replaystore import ReplayStore, ReplayStream
from repro.seeding import spawn
from repro.training.trainer import Trainer


def _replay_subset(method, split):
    config = method.config
    return split.pretrain_train.sample_fraction(
        config.ncl.replay_fraction, spawn(config.seed, "replay-subset")
    )


def _dense_buffer(method, pretrained, split):
    """The in-memory buffer ``method.run`` generates on ``split``."""
    buffer, _ = LatentReplayBuffer.generate(
        pretrained.network,
        _replay_subset(method, split),
        insertion_layer=method.insertion_layer(),
        timesteps=method.ncl_timesteps(),
        compression_factor=method.compression_factor(),
        controller=method.make_generation_controller(),
    )
    return buffer


def _assert_identical(in_memory, store_backed):
    assert len(in_memory.history) == len(store_backed.history)
    for mem, disk in zip(in_memory.history, store_backed.history):
        assert mem.loss == disk.loss
        assert mem.old_task_accuracy == disk.old_task_accuracy
        assert mem.new_task_accuracy == disk.new_task_accuracy
        assert mem.overall_accuracy == disk.overall_accuracy
    assert in_memory.final_overall_accuracy == store_backed.final_overall_accuracy
    for p_mem, p_disk in zip(
        in_memory.network.parameters(), store_backed.network.parameters()
    ):
        np.testing.assert_array_equal(p_mem.data, p_disk.data)


class TestBitwiseParity:
    def test_replay4ncl(self, ci_pretrained, ci_split, ci_preset, tmp_path):
        method = Replay4NCL(ci_preset.experiment)
        in_memory = method.run(ci_pretrained.network, ci_split)
        store_backed = Replay4NCL(ci_preset.experiment).run(
            ci_pretrained.network,
            ci_split,
            replay=ReplaySpec(store_dir=tmp_path / "store", shard_samples=4),
        )
        _assert_identical(in_memory, store_backed)
        assert store_backed.replay_store_path == str(tmp_path / "store")
        assert in_memory.replay_store_path is None
        # The storage model is path-independent.
        assert store_backed.latent_storage_bytes == in_memory.latent_storage_bytes
        assert store_backed.latent_stored_frames == in_memory.latent_stored_frames

    def test_spikinglr_decompress_path(
        self, ci_pretrained, ci_split, ci_preset, tmp_path
    ):
        # SpikingLR stores factor-2 subsampled frames and zero-stuffs on
        # replay — the stream must reproduce that cycle exactly too.
        in_memory = SpikingLR(ci_preset.experiment).run(
            ci_pretrained.network, ci_split
        )
        store_backed = SpikingLR(ci_preset.experiment).run(
            ci_pretrained.network,
            ci_split,
            replay=ReplaySpec(store_dir=tmp_path / "store"),
        )
        _assert_identical(in_memory, store_backed)

    def test_raw_input_replay(self, ci_pretrained, ci_split, ci_preset, tmp_path):
        # Insertion layer 0: the store holds raw input rasters.
        in_memory = RawInputReplay(ci_preset.experiment).run(
            ci_pretrained.network, ci_split
        )
        store_backed = RawInputReplay(ci_preset.experiment).run(
            ci_pretrained.network,
            ci_split,
            replay=ReplaySpec(store_dir=tmp_path / "store", shard_samples=4),
        )
        _assert_identical(in_memory, store_backed)

    @pytest.mark.parametrize("method_cls", [Replay4NCL, SpikingLR])
    def test_epoch_costs_preserved(
        self, method_cls, ci_pretrained, ci_split, ci_preset, tmp_path
    ):
        # The cost model must charge the same work whether the buffer is
        # resident or store-backed, and the traces the run takes from
        # its own frozen-front passes must equal a direct recomputation.
        method = method_cls(ci_preset.experiment)
        mem = method.run(ci_pretrained.network, ci_split)
        disk = method.run(
            ci_pretrained.network,
            ci_split,
            replay=ReplaySpec(store_dir=tmp_path / "store"),
        )
        insertion, timesteps = method.insertion_layer(), method.ncl_timesteps()
        network = ci_pretrained.network
        generation = frozen_front_trace(
            network,
            insertion,
            _replay_subset(method, ci_split).to_dense(timesteps),
            method.make_generation_controller(),
        )
        new_task = frozen_front_trace(
            network, insertion, ci_split.new_train.to_dense(timesteps)
        )
        assert generation.entries and new_task.entries
        for result in (mem, disk):
            assert result.prepare_cost.frozen_traces == [generation]
            assert len(result.epoch_costs) == ci_preset.experiment.ncl.epochs
            for cost in result.epoch_costs:
                assert cost.frozen_traces == [new_task]
        assert [c.decompressed_cells for c in mem.epoch_costs] == [
            c.decompressed_cells for c in disk.epoch_costs
        ]


class TestStoreArtifacts:
    @pytest.fixture(scope="class")
    def store_run(self, ci_pretrained, ci_split, ci_preset, tmp_path_factory):
        root = tmp_path_factory.mktemp("ncl-store") / "store"
        result = Replay4NCL(ci_preset.experiment).run(
            ci_pretrained.network,
            ci_split,
            replay=ReplaySpec(store_dir=root, shard_samples=4),
        )
        return result, ReplayStore.open(root)

    def test_store_persisted(self, store_run):
        result, store = store_run
        assert store.num_samples > 0
        assert store.meta.shard_samples == 4
        assert all(s.num_samples <= 4 for s in store.shards)

    def test_memory_model_crosschecks_disk(self, store_run):
        result, store = store_run
        stats = store.stats()
        # Per-shard codec choice can only undercut the bitmap model;
        # per-shard bit padding costs at most one byte per shard.
        assert stats.payload_bytes <= (
            result.latent_storage_bytes + stats.num_shards
        )
        assert stats.payload_saving >= 0.0
        assert stats.disk_bytes > stats.payload_bytes
        assert stats.modelled_bytes == result.latent_storage_bytes

    def test_store_holds_the_dense_buffer(
        self, store_run, ci_pretrained, ci_split, ci_preset
    ):
        _, store = store_run
        buffer = _dense_buffer(
            Replay4NCL(ci_preset.experiment), ci_pretrained, ci_split
        )
        assert store.num_samples == buffer.num_samples
        np.testing.assert_array_equal(store.labels, buffer.labels)
        np.testing.assert_array_equal(
            ReplayStream(store).materialize(), buffer.compressed
        )


class TestReadOnce:
    """One traced store-backed run per method, at least two epochs each."""

    @pytest.fixture(
        scope="class", params=[Replay4NCL, SpikingLR, RawInputReplay],
        ids=lambda cls: cls.__name__,
    )
    def traced_run(self, request, ci_pretrained, ci_split, ci_preset, tmp_path_factory):
        assert ci_preset.experiment.ncl.epochs >= 2
        root = tmp_path_factory.mktemp("read-once") / "store"
        method = request.param(ci_preset.experiment)
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            result = method.run(
                ci_pretrained.network,
                ci_split,
                replay=ReplaySpec(store_dir=root, shard_samples=4),
            )
        store = ReplayStore.open(root)
        assert store.num_shards > 1
        return method, result, store, recorder

    def test_each_shard_decodes_once_per_run(self, traced_run):
        _, _, store, recorder = traced_run
        counters = {e.name: e.total for e in recorder.metrics()}
        assert counters["store.shards_decoded"] == store.num_shards

    def test_one_gather_serves_every_epoch(self, traced_run):
        _, _, store, recorder = traced_run
        gathers = [s for s in recorder.spans() if s.name == "store.gather"]
        assert [(s.attrs["samples"], s.attrs["shards"]) for s in gathers] == [
            (store.num_samples, store.num_shards)
        ]

    def test_resident_bytes_are_the_replay_raster(self, traced_run):
        # The replay raster training held: decompressed frames when the
        # method zero-stuffs on replay, stored frames otherwise.
        method, result, store, _ = traced_run
        meta = store.meta
        frames = (
            meta.generated_timesteps
            if method.decompress_for_replay()
            else meta.stored_frames
        )
        assert result.replay_peak_resident_bytes == (
            4 * frames * store.num_samples * meta.num_channels
        )

    def test_replay_raster_matches_the_dense_buffer(
        self, traced_run, ci_pretrained, ci_split
    ):
        method, _, store, _ = traced_run
        decompress = method.decompress_for_replay()
        buffer = _dense_buffer(method, ci_pretrained, ci_split)
        expected = buffer.materialize(decompress)
        streamed = ReplayStream(store, decompress=decompress).materialize()
        assert streamed.dtype == np.float32
        np.testing.assert_array_equal(streamed, expected)


class TestTrainingHoldsOneCopy:
    """Training keeps the concatenated inputs, not the parts they came from."""

    @pytest.mark.parametrize("method_cls", [Replay4NCL, SpikingLR])
    @pytest.mark.parametrize("store_backed", [False, True], ids=["dense", "store"])
    def test_replay_raster_released_before_fit(
        self,
        ci_pretrained,
        ci_split,
        ci_preset,
        tmp_path,
        monkeypatch,
        method_cls,
        store_backed,
    ):
        rasters = []

        def recording(original):
            def materialize(self, *args, **kwargs):
                raster = original(self, *args, **kwargs)
                rasters.append(weakref.ref(raster))
                return raster

            return materialize

        monkeypatch.setattr(
            LatentReplayBuffer,
            "materialize",
            recording(LatentReplayBuffer.materialize),
        )
        monkeypatch.setattr(
            ReplayStream, "materialize", recording(ReplayStream.materialize)
        )
        alive_at_fit = []
        fit = Trainer.fit

        def checking_fit(trainer, *args, **kwargs):
            alive_at_fit.extend(ref() is not None for ref in rasters)
            return fit(trainer, *args, **kwargs)

        monkeypatch.setattr(Trainer, "fit", checking_fit)
        replay = ReplaySpec(store_dir=tmp_path / "store") if store_backed else None
        result = method_cls(ci_preset.experiment).run(
            ci_pretrained.network, ci_split, replay=replay
        )
        assert alive_at_fit == [False]
        assert (result.replay_peak_resident_bytes > 0) == store_backed
