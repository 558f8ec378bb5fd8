"""Pins the bits of synthetic SHD recordings.

Any change to how ``SyntheticSHD`` evaluates its intensity field or
draws events must leave recordings byte-identical: pre-training, replay
and every e2ebench matrix are built on them.  Two pins:

- a test-local full-grid copy of the original ``intensity_field`` loop,
  which the library's field must equal bitwise, with and without
  per-sample variability;
- sha256 digests of the ``times`` and ``channels`` bytes of a few
  recordings at ci and bench scale, recorded before the field was
  evaluated per active window.
"""

import hashlib

import numpy as np
import pytest

from repro.data import SyntheticSHD
from repro.eval.scale import get_scale
from repro.seeding import spawn


def reference_field(gen: SyntheticSHD, class_id: int, rng=None) -> np.ndarray:
    """Every ridge evaluated over the whole grid, as first written."""
    cfg = gen.config
    grid_t = np.linspace(0.0, 1.0, cfg.grid_steps, endpoint=False) + 0.5 / cfg.grid_steps
    channels = np.arange(cfg.num_channels) / cfg.num_channels
    field = np.full(
        (cfg.grid_steps, cfg.num_channels), cfg.background_rate, dtype=np.float64
    )
    for traj in gen._prototypes[class_id]:
        start, end, curve = traj.start_channel, traj.end_channel, traj.curvature
        onset, offset = traj.onset, traj.offset
        if rng is not None:
            shift = rng.normal(0.0, cfg.channel_jitter_std)
            start = float(np.clip(start + shift, 0.02, 0.98))
            end = float(np.clip(end + shift, 0.02, 0.98))
            warp = float(np.clip(rng.normal(1.0, cfg.time_warp_std), 0.7, 1.3))
            onset = onset * warp
            offset = min(offset * warp, 1.0)
        span = max(offset - onset, 1e-3)
        phase = (grid_t - onset) / span
        envelope = np.where(
            (phase >= 0) & (phase <= 1), np.sin(np.pi * np.clip(phase, 0, 1)), 0.0
        )
        centre = start + (end - start) * phase + curve * phase * (1 - phase)
        gauss = np.exp(
            -0.5 * ((channels[None, :] - centre[:, None]) / cfg.channel_bandwidth) ** 2
        )
        field += cfg.peak_rate * traj.intensity * envelope[:, None] * gauss
    return field


# Samples per class checked against the reference: paper scale is 700
# channels x 20 classes, so it gets a few.
SAMPLES = {"ci": 8, "bench": 8, "paper": 3}


@pytest.mark.parametrize("scale", sorted(SAMPLES))
def test_field_matches_full_grid_reference(scale):
    gen = SyntheticSHD(get_scale(scale).shd, seed=0)
    for class_id in range(gen.config.num_classes):
        clean = gen.intensity_field(class_id)
        assert np.array_equal(clean, reference_field(gen, class_id))
        for sample_id in range(SAMPLES[scale]):
            label = f"sample:{class_id}:{sample_id}"
            got = gen.intensity_field(class_id, spawn(0, label))
            want = reference_field(gen, class_id, spawn(0, label))
            assert got.tobytes() == want.tobytes(), (scale, class_id, sample_id)


def test_reference_sees_partial_windows():
    # The pin is only as strong as its inputs: some ridges must start or
    # end inside the grid, so rows outside the active window exist.
    gen = SyntheticSHD(get_scale("bench").shd, seed=0)
    onsets = [t.onset for proto in gen._prototypes for t in proto]
    offsets = [t.offset for proto in gen._prototypes for t in proto]
    assert max(onsets) > 0.1 and min(offsets) < 0.9


def _digest(stream) -> tuple[str, str]:
    return (
        hashlib.sha256(stream.times.tobytes()).hexdigest()[:16],
        hashlib.sha256(stream.channels.tobytes()).hexdigest()[:16],
    )


# (scale, seed, class_id, sample_id) -> sha256 prefixes of (times, channels).
GOLDEN = {
    ("ci", 0, 0, 0): ("ff8dea6e538e7b3f", "58edcd0bc882cd83"),
    ("ci", 0, 1, 3): ("5d399bbaa12064db", "d87152a2046a1013"),
    ("ci", 0, 4, 10002): ("d884e74ba6e85f01", "4c193b2f1bb30571"),
    ("ci", 1, 0, 0): ("4a091c55933cd355", "8c37eabed14b2e07"),
    ("ci", 1, 1, 3): ("444d303afcb6adcd", "7a10bc6f5400656c"),
    ("ci", 1, 4, 10002): ("7487eb4d42728113", "a7e9917d385b71ac"),
    ("bench", 0, 0, 0): ("f0ac2e196691a3ce", "b2bdf874280c0b7c"),
    ("bench", 0, 1, 3): ("4af5c201cb51fb6c", "826a44d34ca8573e"),
    ("bench", 0, 9, 10002): ("25e6404ec14e371d", "0ac94b71edce8ee6"),
    ("bench", 1, 0, 0): ("b46476ac8056b246", "7f98771f41f40e33"),
    ("bench", 1, 1, 3): ("69c502ba27e9af1b", "bca71d676b0dec1e"),
    ("bench", 1, 9, 10002): ("d6a3e38e796babba", "60414803670920b2"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_recording_bytes_are_pinned(key):
    scale, seed, class_id, sample_id = key
    gen = SyntheticSHD(get_scale(scale).shd, seed=seed)
    assert _digest(gen.generate(class_id, sample_id)) == GOLDEN[key]
