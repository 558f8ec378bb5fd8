"""Tests for LatentReplayBuffer."""

import numpy as np
import pytest

from repro.core.latent_replay import LatentReplayBuffer, frozen_front_trace
from repro.compression import TemporalSubsampleCodec
from repro.errors import CodecError, ConfigError
from repro.replaystore import ReplayStream
from repro.snn.threshold import PerNeuronAdaptiveThreshold


def _generation_controller(timesteps):
    def factory(layer):
        return PerNeuronAdaptiveThreshold(
            num_neurons=layer.n_out, timesteps=timesteps, adjust_interval=5
        )

    return factory


@pytest.fixture(scope="module")
def buffer_and_inputs(ci_pretrained, ci_split, ci_preset):
    exp = ci_preset.experiment
    replay = ci_split.pretrain_train.sample_fraction(
        0.5, np.random.default_rng(0)
    )
    buffer, _ = LatentReplayBuffer.generate(
        ci_pretrained.network,
        replay,
        insertion_layer=2,
        timesteps=exp.pretrain.timesteps,
        compression_factor=2,
    )
    return buffer, replay


class TestGeneration:
    def test_geometry(self, buffer_and_inputs, ci_pretrained, ci_preset):
        buffer, replay = buffer_and_inputs
        t = ci_preset.experiment.pretrain.timesteps
        assert buffer.stored_frames == (t + 1) // 2
        assert buffer.num_samples == len(replay)
        assert buffer.num_channels == ci_pretrained.network.layer_input_size(2)

    def test_labels_preserved(self, buffer_and_inputs):
        buffer, replay = buffer_and_inputs
        np.testing.assert_array_equal(buffer.labels, replay.labels)

    def test_binary_content(self, buffer_and_inputs):
        buffer, _ = buffer_and_inputs
        assert set(np.unique(buffer.compressed)).issubset({0.0, 1.0})

    def test_layer0_stores_raw_input(self, ci_pretrained, ci_split, ci_preset):
        replay = ci_split.pretrain_train.subset([0, 1])
        t = ci_preset.experiment.pretrain.timesteps
        buffer, trace = LatentReplayBuffer.generate(
            ci_pretrained.network, replay, insertion_layer=0,
            timesteps=t, compression_factor=1,
        )
        np.testing.assert_array_equal(
            buffer.compressed, replay.to_dense(t)
        )
        assert trace.entries == []  # no frozen front to charge

    def test_empty_replay_rejected(self, ci_pretrained, ci_split):
        empty = ci_split.pretrain_train.subset([])
        with pytest.raises(ConfigError):
            LatentReplayBuffer.generate(
                ci_pretrained.network, empty, insertion_layer=1, timesteps=10
            )

    def test_deterministic(self, ci_pretrained, ci_split, ci_preset):
        replay = ci_split.pretrain_train.subset([0, 1, 2])
        kwargs = dict(insertion_layer=1, timesteps=20, compression_factor=2)
        a, _ = LatentReplayBuffer.generate(ci_pretrained.network, replay, **kwargs)
        b, _ = LatentReplayBuffer.generate(ci_pretrained.network, replay, **kwargs)
        np.testing.assert_array_equal(a.compressed, b.compressed)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_trace_is_the_generation_pass(
        self, ci_pretrained, ci_split, adaptive
    ):
        # The trace comes from the pass that made the buffer: it equals
        # a recomputation under the same generation controller.
        replay = ci_split.pretrain_train.subset([0, 1, 2])
        controller = _generation_controller(12) if adaptive else None
        buffer, trace = LatentReplayBuffer.generate(
            ci_pretrained.network, replay, insertion_layer=2, timesteps=12,
            controller=controller,
        )
        dense = replay.to_dense(12)
        assert trace == frozen_front_trace(
            ci_pretrained.network, 2, dense, controller
        )
        assert [e.name for e in trace.entries] == ["hidden0", "hidden1"]
        assert all(e.batch == 3 and e.timesteps == 12 for e in trace.entries)
        assert trace.entries[-1].output_spike_count == float(buffer.compressed.sum())


class TestGenerateIntoStore:
    def test_matches_dense_generation(self, ci_pretrained, ci_split, tmp_path):
        replay = ci_split.pretrain_train.sample_fraction(
            0.5, np.random.default_rng(0)
        )
        dense, dense_trace = LatentReplayBuffer.generate(
            ci_pretrained.network, replay, insertion_layer=2, timesteps=12
        )
        store, trace = LatentReplayBuffer.generate_into_store(
            ci_pretrained.network,
            replay,
            tmp_path / "store",
            insertion_layer=2,
            timesteps=12,
            shard_samples=3,
        )
        assert store.num_shards > 1
        streamed = ReplayStream(store).materialize()
        np.testing.assert_array_equal(streamed, dense.compressed)
        np.testing.assert_array_equal(store.labels, dense.labels)
        # One pass over the whole subset, traced like the dense one.
        assert trace == dense_trace
        assert all(e.batch == len(replay) for e in trace.entries)

    def test_out_of_range_insertion_rejected(
        self, ci_pretrained, ci_split, tmp_path
    ):
        # insertion_layer is validated before anything is written.
        from repro.errors import SplitError

        replay = ci_split.pretrain_train.sample_fraction(
            0.5, np.random.default_rng(0)
        )
        with pytest.raises(SplitError, match="out of range"):
            LatentReplayBuffer.generate_into_store(
                ci_pretrained.network,
                replay,
                tmp_path / "store",
                insertion_layer=99,
                timesteps=12,
            )
        assert not (tmp_path / "store").exists()  # nothing half-written

    def test_empty_replay_rejected(self, ci_pretrained, ci_split, tmp_path):
        empty = ci_split.pretrain_train.subset([])
        with pytest.raises(ConfigError, match="empty"):
            LatentReplayBuffer.generate_into_store(
                ci_pretrained.network,
                empty,
                tmp_path / "store",
                insertion_layer=2,
                timesteps=12,
            )


class TestMaterialize:
    def test_decompress_restores_timesteps(self, buffer_and_inputs, ci_preset):
        buffer, _ = buffer_and_inputs
        raster = buffer.materialize(decompress=True)
        assert raster.shape[0] == ci_preset.experiment.pretrain.timesteps

    def test_decompress_zero_stuffs(self, buffer_and_inputs):
        buffer, _ = buffer_and_inputs
        raster = buffer.materialize(decompress=True)
        # Odd frames were dropped by the factor-2 codec.
        assert raster[1::2].sum() == 0.0

    def test_native_replay_needs_factor_one(self, buffer_and_inputs):
        buffer, _ = buffer_and_inputs
        with pytest.raises(CodecError):
            buffer.materialize(decompress=False)

    def test_native_replay_is_a_read_only_view(self, ci_pretrained, ci_split):
        # The frames feed one np.concatenate; a copy would hold the
        # buffer twice at the concatenation peak.
        replay = ci_split.pretrain_train.subset([0])
        buffer, _ = LatentReplayBuffer.generate(
            ci_pretrained.network, replay, insertion_layer=1,
            timesteps=12, compression_factor=1,
        )
        raster = buffer.materialize(decompress=False)
        assert raster.dtype == np.float32
        assert np.shares_memory(raster, buffer.compressed)
        with pytest.raises(ValueError, match="read-only"):
            raster[0, 0, 0] = 99.0
        assert buffer.compressed.flags.writeable


class TestStorage:
    def test_storage_bytes_formula(self, buffer_and_inputs):
        buffer, _ = buffer_and_inputs
        cells = buffer.stored_frames * buffer.num_samples * buffer.num_channels
        expected = (cells + 7) // 8 + 8 * buffer.num_samples
        assert buffer.storage_bytes() == expected

    def test_reduced_timestep_saves_memory(self, ci_pretrained, ci_split):
        replay = ci_split.pretrain_train.subset([0, 1, 2, 3])
        sota, _ = LatentReplayBuffer.generate(
            ci_pretrained.network, replay, insertion_layer=1,
            timesteps=30, compression_factor=2,  # stores 15 frames
        )
        ours, _ = LatentReplayBuffer.generate(
            ci_pretrained.network, replay, insertion_layer=1,
            timesteps=12, compression_factor=1,  # stores 12 frames
        )
        assert ours.storage_bytes() < sota.storage_bytes()

    def test_decompressed_cells_accounting(self, buffer_and_inputs):
        buffer, _ = buffer_and_inputs
        cells = buffer.decompressed_cells_per_replay(decompress=True)
        assert cells == (
            buffer.generated_timesteps * buffer.num_samples * buffer.num_channels
        )
        assert buffer.decompressed_cells_per_replay(decompress=False) == 0

    def test_shape_validation(self):
        with pytest.raises(CodecError):
            LatentReplayBuffer(
                compressed=np.zeros((4, 2)), labels=np.zeros(2),
                insertion_layer=1, generated_timesteps=4,
                codec=TemporalSubsampleCodec(1),
            )
        with pytest.raises(CodecError):
            LatentReplayBuffer(
                compressed=np.zeros((4, 2, 3)), labels=np.zeros(5),
                insertion_layer=1, generated_timesteps=4,
                codec=TemporalSubsampleCodec(1),
            )
