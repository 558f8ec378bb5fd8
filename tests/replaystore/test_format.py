"""Tests for the binary shard format (encode/decode/codec choice) and the
latent-memory byte formula."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.replaystore import (
    CODEC_AER,
    CODEC_BITPACK,
    choose_codec,
    codec_payload_bytes,
    decode_shard,
    encode_shard,
    latent_bytes,
    peek_header,
)
from repro.replaystore.format import SHARD_MAGIC, payload_offset


def _raster(density, shape=(20, 5, 8), seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) < density).astype(np.float32)


class TestRoundtrip:
    @pytest.mark.parametrize("density", [0.0, 0.01, 0.3, 1.0])
    def test_exact(self, density):
        raster = _raster(density)
        labels = np.arange(5, dtype=np.int64)
        decoded, out_labels = decode_shard(encode_shard(raster, labels))
        np.testing.assert_array_equal(decoded, raster)
        np.testing.assert_array_equal(out_labels, labels)
        assert decoded.dtype == np.float32

    def test_single_frame_shard(self):
        raster = _raster(0.5, shape=(1, 3, 4))
        decoded, _ = decode_shard(encode_shard(raster, np.zeros(3)))
        np.testing.assert_array_equal(decoded, raster)

    def test_single_sample_shard(self):
        raster = _raster(0.5, shape=(10, 1, 4))
        decoded, labels = decode_shard(encode_shard(raster, np.array([7])))
        np.testing.assert_array_equal(decoded, raster)
        assert labels.tolist() == [7]

    @given(
        density=st.floats(min_value=0.0, max_value=1.0),
        frames=st.integers(min_value=1, max_value=30),
        samples=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, density, frames, samples):
        rng = np.random.default_rng(int(density * 1000) + frames * 10 + samples)
        raster = (rng.random((frames, samples, 6)) < density).astype(np.float32)
        labels = rng.integers(0, 20, samples)
        blob = encode_shard(raster, labels)
        header = peek_header(blob)
        assert header.payload_bytes == codec_payload_bytes(raster)[header.codec]
        assert len(blob) == payload_offset(samples) + header.payload_bytes
        decoded, out_labels = decode_shard(blob)
        np.testing.assert_array_equal(decoded, raster)
        np.testing.assert_array_equal(out_labels, labels)


class TestCodecChoice:
    def test_sparse_picks_aer(self):
        raster = np.zeros((50, 4, 50), dtype=np.float32)
        raster[0, 0, 0] = 1.0
        assert choose_codec(raster) == CODEC_AER

    def test_dense_picks_bitpack(self):
        assert choose_codec(np.ones((50, 4, 50), dtype=np.float32)) == CODEC_BITPACK

    def test_crossover_density(self):
        # AER costs 6 B/event, bitpack 1 bit/cell: crossover at 1/48.
        cells = 48 * 100
        raster = np.zeros((48, 1, 100), dtype=np.float32)
        flat = raster.reshape(-1)
        flat[: cells // 49] = 1.0  # below crossover -> AER
        assert choose_codec(raster) == CODEC_AER
        flat[: cells // 40] = 1.0  # above crossover -> bitpack
        assert choose_codec(raster) == CODEC_BITPACK

    def test_payload_accounting_matches_choice(self):
        raster = _raster(0.02)
        sizes = codec_payload_bytes(raster)
        blob = encode_shard(raster, np.zeros(raster.shape[1]))
        assert peek_header(blob).payload_bytes == min(sizes.values())


class TestValidation:
    def test_rejects_wrong_ndim(self):
        with pytest.raises(StoreError):
            encode_shard(np.zeros((4, 4)), np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(StoreError):
            encode_shard(np.zeros((4, 0, 4)), np.zeros(0))

    def test_rejects_label_mismatch(self):
        with pytest.raises(StoreError):
            encode_shard(_raster(0.1), np.zeros(3))

    def test_rejects_bad_magic(self):
        blob = encode_shard(_raster(0.1), np.zeros(5))
        with pytest.raises(StoreError, match="magic"):
            decode_shard(b"XXXX" + blob[4:])
        assert blob[:4] == SHARD_MAGIC

    def test_rejects_bad_version(self):
        blob = bytearray(encode_shard(_raster(0.1), np.zeros(5)))
        blob[4] = 99
        with pytest.raises(StoreError, match="version"):
            decode_shard(bytes(blob))

    def test_rejects_truncation(self):
        blob = encode_shard(_raster(0.3), np.zeros(5))
        with pytest.raises(StoreError, match="truncated"):
            decode_shard(blob[:-1])

    def test_rejects_short_header(self):
        with pytest.raises(StoreError):
            peek_header(b"RS")


class TestLatentBytes:
    def test_paper_headline_geometry(self):
        # SpikingLR: 50 stored frames; Replay4NCL: 40 -> ~20% saving,
        # slightly less once the per-sample headers are charged.
        saving = 1.0 - latent_bytes(40, 64, 32) / latent_bytes(50, 64, 32)
        assert 0.19 < saving < 0.20

    def test_bitpacked_payload_plus_header(self):
        # 16 frames x 1 sample x 8 channels = 128 bits = 16 bytes.
        assert latent_bytes(16, 1, 8) == 16 + 8
        assert latent_bytes(40, 36, 32) == 6048  # 168 B per sample

    def test_packs_the_whole_raster(self):
        # 15 x 12 = 180 bits per sample: the raster pads once, not per sample.
        assert latent_bytes(15, 65, 12) == (15 * 65 * 12 + 7) // 8 + 8 * 65 == 1983
        assert latent_bytes(15, 0, 12) == 0
