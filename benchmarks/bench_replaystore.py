"""Replay-store throughput: shard encode, decode, materialize and gather.

Wall-clock benchmarks of the storage engine's hot paths, sized by
``REPRO_BENCH_SCALE`` like the other micro benches:

- ``encode``/``decode`` — the per-shard codec round-trip (a store-backed
  NCL run pays one decode per shard);
- ``stream_materialize`` — reading the whole store back once, i.e. what
  a store-backed NCL run does before training;
- ``stream_gather`` — shuffled minibatch gathers through
  :class:`ReplayStream`, each decoding the shards it touches;
- ``dense_gather`` — the same access pattern on the resident array, the
  price-of-admission comparison for going disk-backed.
"""

import os

import numpy as np
import pytest

from repro.replaystore import (
    ReplayStore,
    ReplayStream,
    decode_shard,
    encode_shard,
)

#: (stored_frames, samples, channels, shard_samples) per scale.
_SCALE_SIZES = {
    "ci": (16, 64, 48, 16),
    "bench": (40, 256, 128, 32),
    "paper": (40, 1024, 256, 64),
}


def _sizes():
    scale = os.environ.get("REPRO_BENCH_SCALE", "bench")
    if scale not in _SCALE_SIZES:
        raise ValueError(
            f"unknown REPRO_BENCH_SCALE {scale!r}; expected one of "
            f"{sorted(_SCALE_SIZES)}"
        )
    return _SCALE_SIZES[scale]


@pytest.fixture(scope="module")
def workload():
    frames, samples, channels, shard_samples = _sizes()
    rng = np.random.default_rng(0)
    raster = (rng.random((frames, samples, channels)) < 0.1).astype(np.float32)
    labels = rng.integers(0, 10, samples)
    return raster, labels, shard_samples


@pytest.fixture(scope="module")
def store(workload, tmp_path_factory):
    raster, labels, shard_samples = workload
    store = ReplayStore.create(
        tmp_path_factory.mktemp("bench-store") / "store",
        stored_frames=raster.shape[0],
        num_channels=raster.shape[2],
        generated_timesteps=raster.shape[0],
        shard_samples=shard_samples,
    )
    store.append(raster, labels)
    return store


def test_shard_encode(benchmark, workload):
    raster, labels, shard_samples = workload
    chunk = raster[:, :shard_samples, :]
    benchmark(encode_shard, chunk, labels[:shard_samples])


def test_shard_decode(benchmark, workload):
    raster, labels, shard_samples = workload
    blob = encode_shard(raster[:, :shard_samples, :], labels[:shard_samples])
    benchmark(decode_shard, blob)


def test_stream_materialize(benchmark, store, workload):
    raster, _, _ = workload
    result = benchmark(ReplayStream(store).materialize)
    np.testing.assert_array_equal(result, raster)


def test_stream_gather(benchmark, store, workload):
    raster, _, _ = workload
    stream = ReplayStream(store)
    rng = np.random.default_rng(1)
    batches = [
        rng.choice(raster.shape[1], size=16, replace=False) for _ in range(8)
    ]

    def epoch():
        for batch in batches:
            stream.gather(batch)

    benchmark(epoch)


def test_dense_gather(benchmark, workload):
    raster, _, _ = workload
    rng = np.random.default_rng(1)
    batches = [
        rng.choice(raster.shape[1], size=16, replace=False) for _ in range(8)
    ]

    def epoch():
        for batch in batches:
            raster[:, batch, :]

    benchmark(epoch)
