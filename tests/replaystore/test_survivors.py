"""The federation's one eviction rule: class-balanced survivors.

``GOLDEN`` was recorded from the three-policy implementation this rule
replaced (``ClassBalancedPolicy`` at seed 0, driven in arrival order),
so the survivors, their bytes and the eviction counts of every budget
pass stay bitwise what earlier archives kept.  Indexes that still name
the rule must name this one, and the rule's balance properties hold
under any RNG.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.errors import StoreError
from repro.replaystore import FederatedReplayStore, ReplayStore
from repro.replaystore.federation import (
    FEDERATION_INDEX_NAME,
    _class_balanced_survivors,
)

FRAMES, CHANNELS = 8, 12

#: Per-arrival label streams: skewed 10:3:1 (classes recur, so the
#: largest class keeps losing), balanced (two new classes per arrival)
#: and single-class (the per-class reservoir branch).
STREAMS = {
    "skewed": lambda k: [0, 0, 1, 0, 0, 0, 2, 0, 1, 0, 0, 0, 1, 0],
    "balanced": lambda k: [2 * k, 2 * k + 1] * 6,
    "single": lambda k: [0] * 12,
}
ARRIVALS = 4

#: (capacity, stream) -> (evictions per arrival, digest of every
#: member's surviving labels and bytes after every arrival).
GOLDEN = {
    (5, "skewed"): ((9, 14, 14, 14), "8041459940452c02"),
    (5, "balanced"): ((7, 12, 12, 12), "14503699c33cbc21"),
    (5, "single"): ((7, 12, 12, 12), "9b5a1fc334c04a42"),
    (12, "skewed"): ((2, 14, 14, 14), "e7338a73d40d31de"),
    (12, "balanced"): ((0, 12, 12, 12), "88b08fe7ad82943a"),
    (12, "single"): ((0, 12, 12, 12), "02d19a8c5c84b69e"),
    (23, "skewed"): ((0, 5, 14, 14), "92ba1e3c90cf4207"),
    (23, "balanced"): ((0, 1, 12, 12), "86df9dde1529e4c8"),
    (23, "single"): ((0, 1, 12, 12), "be1f34d57a1fffa0"),
}


def _arrival(root, labels, k):
    """One arrival: a member store of ``labels`` with seeded bytes."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(1000 + k)
    raster = (rng.random((FRAMES, labels.size, CHANNELS)) < 0.3).astype(np.float32)
    store = ReplayStore.create(
        root,
        stored_frames=FRAMES,
        num_channels=CHANNELS,
        generated_timesteps=FRAMES,
        shard_samples=4,
    )
    store.append(raster, labels)


def _add_index_fields(root, fields):
    """Write ``fields`` into the federation index, as an older version did."""
    path = root / FEDERATION_INDEX_NAME
    payload = json.loads(path.read_text())
    payload.update(fields)
    path.write_text(json.dumps(payload))


def _replay_arrivals(root, capacity, stream, index_fields=None):
    """Adopt ``ARRIVALS`` members, rebalancing after each; pin the survivors.

    ``index_fields`` are written into the federation index before every
    rebalance.
    """
    fed = FederatedReplayStore.create(root)
    evictions, digest = [], hashlib.sha256()
    for k in range(ARRIVALS):
        _arrival(root / f"step-{k:03d}", STREAMS[stream](k), k)
        fed.adopt(f"step-{k:03d}")
        if k == 0:
            fed.configure(budget_bytes=fed.bytes_for(capacity))
        if index_fields:
            _add_index_fields(root, index_fields)
        evictions.append(fed.rebalance())
        for name, store in fed.members():
            digest.update(name.encode())
            for shard in range(store.num_shards):
                raster, labels = store.read_shard(shard)
                digest.update(labels.astype(np.int64).tobytes())
                digest.update(np.packbits(raster.astype(bool)).tobytes())
        assert fed.num_samples <= capacity
    return tuple(evictions), digest.hexdigest()[:16]


class TestGoldenSurvivors:
    @pytest.mark.parametrize("capacity, stream", sorted(GOLDEN))
    def test_survivors_match_the_recorded_policy(self, tmp_path, capacity, stream):
        assert _replay_arrivals(tmp_path / "fed", capacity, stream) == GOLDEN[
            (capacity, stream)
        ]


class TestEarlierIndexes:
    """Indexes that still name the eviction rule (``policy``/``seed``)."""

    def test_earlier_index_opens(self, tmp_path):
        root = tmp_path / "fed"
        root.mkdir()
        (root / FEDERATION_INDEX_NAME).write_text(json.dumps({
            "version": 1, "budget_bytes": 300, "policy": "class-balanced",
            "seed": 0, "rebalances": 2, "members": [],
            "pending_removal": [], "geometry": None,
        }))
        fed = FederatedReplayStore.open(root)
        assert (fed.budget_bytes, fed.rebalances, fed.member_names) == (300, 2, [])

    def test_class_balanced_seed_zero_rebalances_identically(self, tmp_path):
        fields = {"policy": "class-balanced", "seed": 0}
        assert _replay_arrivals(tmp_path / "fed", 5, "skewed", fields) == GOLDEN[
            (5, "skewed")
        ]

    @pytest.mark.parametrize(
        "field, value", [("policy", "fifo"), ("policy", "reservoir"), ("seed", 7)]
    )
    def test_another_rule_is_refused(self, tmp_path, field, value):
        fed = FederatedReplayStore.create(tmp_path / "fed", budget_bytes=100)
        _add_index_fields(fed.root, {field: value})
        with pytest.raises(StoreError, match=f"federation {field} "):
            FederatedReplayStore.open(fed.root)
        with pytest.raises(StoreError, match=f"federation {field} "):
            fed.rebalance()


def _kept(labels, capacity, seed=0):
    """The labels the rule keeps from ``labels`` under ``rng(seed)``."""
    survivors = _class_balanced_survivors(
        labels, capacity, np.random.default_rng(seed)
    )
    assert np.all(np.diff(survivors) > 0)
    return [labels[i] for i in survivors]


class TestClassBalancedRule:
    """Properties of the rule under any RNG, not just the federation's."""

    SEEDS = [0, 1, 7, 13, 101]

    def test_rebalances_skewed_stream(self):
        # 30 samples of class 0 then 6 of class 1: a balanced buffer
        # should end close to 50/50, not 90/10.
        kept = _kept([0] * 30 + [1] * 6, capacity=8, seed=3)
        assert kept.count(1) >= 3
        assert len(kept) == 8

    def test_minority_class_never_evicted_by_majority(self):
        # Once a rare class is in, further majority arrivals cannot push
        # it out (they only ever displace the largest class).
        assert 1 in _kept([0] * 4 + [1] + [0] * 40, capacity=4)

    def test_within_class_reservoir(self):
        # Single class: behaves as a reservoir, stays at capacity.
        kept = _kept([2] * 50, capacity=6, seed=1)
        assert kept == [2] * 6

    def test_deterministic_given_rng(self):
        labels = list(range(4)) * 10
        assert _kept(labels, capacity=6, seed=9) == _kept(labels, capacity=6, seed=9)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_capacity_respected_and_labels_from_stream(self, seed):
        labels = np.random.default_rng(seed).integers(0, 6, 80).tolist()
        kept = _kept(labels, capacity=12, seed=seed)
        assert len(kept) == 12
        for c in set(kept):
            assert kept.count(c) <= labels.count(c)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_under_capacity_keeps_everything(self, seed):
        labels = np.random.default_rng(seed).integers(0, 3, 9).tolist()
        assert _kept(labels, capacity=20, seed=seed) == labels

    @pytest.mark.parametrize("seed", SEEDS)
    def test_spread_on_round_robin(self, seed):
        # Equal interleaved arrivals: per-class counts may never drift
        # further than one apart, whatever the eviction draws do.
        kept = _kept(list(range(4)) * 15, capacity=10, seed=seed)
        counts = [kept.count(c) for c in range(4)]
        assert sum(counts) == 10
        assert max(counts) - min(counts) <= 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_minority_floor(self, seed):
        # A class with >= capacity//num_classes arrivals keeps at least
        # that many slots under skewed pressure (no starvation).
        kept = _kept([0] * 40 + [1] * 4 + [0] * 40, capacity=8, seed=seed)
        assert kept.count(1) == 4
        assert len(kept) == 8

    @pytest.mark.parametrize("seed", SEEDS)
    def test_never_goes_extinct(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.permutation([0] * 50 + [1] * 8 + [2] * 8).tolist()
        assert set(_kept(labels, capacity=9, seed=seed)) == {0, 1, 2}
