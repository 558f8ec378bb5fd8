"""Tests for FederatedReplayStore: lifecycle, budgets, balance, stats."""

import numpy as np
import pytest

from repro.errors import StoreError
from repro.replaystore import FederatedReplayStore, ReplayStore, latent_bytes

FRAMES, CHANNELS = 8, 12


def make_member(root, labels, *, seed=0, shard_samples=4, frames=FRAMES):
    """Write one member store holding ``len(labels)`` random samples."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    raster = (rng.random((frames, labels.size, CHANNELS)) < 0.2).astype(np.float32)
    store = ReplayStore.create(
        root,
        stored_frames=frames,
        num_channels=CHANNELS,
        generated_timesteps=frames,
        shard_samples=shard_samples,
    )
    store.append(raster, labels)
    return store


@pytest.fixture
def federation(tmp_path):
    fed = FederatedReplayStore.create(tmp_path / "fed")
    make_member(tmp_path / "fed" / "task-0", [0] * 6 + [1] * 6, seed=1)
    make_member(tmp_path / "fed" / "task-1", [2] * 6, seed=2)
    fed.adopt("task-0")
    fed.adopt("task-1")
    return fed


class TestLifecycle:
    def test_open_roundtrips_index(self, federation):
        twin = FederatedReplayStore.open(federation.root)
        assert twin.member_names == ["task-0", "task-1"]
        assert twin.budget_bytes is None
        assert twin.num_samples == 18
        np.testing.assert_array_equal(twin.labels, federation.labels)

    def test_refuses_to_clobber(self, federation):
        with pytest.raises(StoreError, match="already exists"):
            FederatedReplayStore.create(federation.root)

    def test_open_missing_is_clean_error(self, tmp_path):
        with pytest.raises(StoreError, match="no federation"):
            FederatedReplayStore.open(tmp_path / "nope")

    def test_adopt_validates(self, federation, tmp_path):
        with pytest.raises(StoreError, match="already a member"):
            federation.adopt("task-0")
        with pytest.raises(StoreError, match="no replay store"):
            federation.adopt("task-9")
        make_member(
            federation.root / "task-bad", [0, 1], seed=9, frames=FRAMES + 1
        )
        with pytest.raises(StoreError, match="geometry"):
            federation.adopt("task-bad")

    def test_adopt_rejects_different_insertion_point(self, federation):
        # Same frame/channel counts but a different insertion layer is a
        # different feature space — federating them would silently mix
        # semantically incompatible latents.
        other = ReplayStore.create(
            federation.root / "task-lins",
            stored_frames=FRAMES,
            num_channels=CHANNELS,
            generated_timesteps=FRAMES,
            insertion_layer=2,
            shard_samples=4,
        )
        raster = np.zeros((FRAMES, 2, CHANNELS), dtype=np.float32)
        raster[0, :, 0] = 1.0
        other.append(raster, np.asarray([0, 1]))
        with pytest.raises(StoreError, match="Lins"):
            federation.adopt("task-lins")

    def test_unknown_member_access(self, federation):
        with pytest.raises(StoreError, match="not a member"):
            federation.member("task-9")

    def test_labels_follow_arrival_order(self, federation):
        np.testing.assert_array_equal(
            federation.labels, np.asarray([0] * 6 + [1] * 6 + [2] * 6)
        )

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="budget_bytes"):
            FederatedReplayStore.create(tmp_path / "f", budget_bytes=0)

    def test_member_names_must_be_plain(self, federation):
        for bad in ("", ".", "..", "a/b", "a\\b"):
            with pytest.raises(StoreError, match="plain directory name"):
                federation.adopt(bad)

    def test_overwrite_removes_stale_members(self, federation):
        # Regression: replacing a federation must take the old run's
        # member stores with it — otherwise a later auto-discovering
        # adopt would mix stale latents into the fresh archive.
        root = federation.root
        fresh = FederatedReplayStore.create(root, overwrite=True)
        assert fresh.member_names == []
        assert not (root / "task-0").exists()
        assert not (root / "task-1").exists()

    def test_configure_updates_and_persists(self, federation):
        federation.configure(budget_bytes=1234)
        assert FederatedReplayStore.open(federation.root).budget_bytes == 1234
        with pytest.raises(StoreError, match="budget_bytes"):
            federation.configure(budget_bytes=0)

    @pytest.mark.parametrize("knob, value", [("policy", "fifo"), ("seed", 7)])
    def test_create_takes_no_rule_knob(self, tmp_path, knob, value):
        with pytest.raises(TypeError, match=knob):
            FederatedReplayStore.create(tmp_path / "fed", **{knob: value})
        assert not (tmp_path / "fed").exists()

    @pytest.mark.parametrize("knob, value", [("policy", "fifo"), ("seed", 7)])
    def test_configure_takes_no_rule_knob(self, federation, knob, value):
        with pytest.raises(TypeError, match=knob):
            federation.configure(budget_bytes=1234, **{knob: value})
        assert FederatedReplayStore.open(federation.root).budget_bytes is None

    def test_index_and_stats_name_no_rule(self, federation):
        import json

        from repro.replaystore.federation import FEDERATION_INDEX_NAME

        federation.configure(budget_bytes=federation.bytes_for(10))
        federation.rebalance()
        index = json.loads((federation.root / FEDERATION_INDEX_NAME).read_text())
        assert not {"policy", "seed"} & set(index)
        assert not hasattr(federation.stats(), "policy")


class TestGlobalBudget:
    """The core invariant: modelled bytes never exceed the budget."""

    def test_budget_holds_across_arrivals(self, tmp_path):
        fed = FederatedReplayStore.create(tmp_path / "fed")
        rng = np.random.default_rng(0)
        budget = None
        for step in range(5):
            make_member(
                fed.root / f"task-{step}",
                rng.integers(0, step + 2, 8),
                seed=step,
            )
            fed.adopt(f"task-{step}")
            if budget is None:  # budget admits 10 samples total
                budget = fed.bytes_for(10)
                fed.configure(budget_bytes=budget)
            fed.rebalance()
            assert fed.model_bytes() <= budget
            assert not fed.over_budget()
        assert fed.num_samples == 10  # budget binds after enough arrivals

    def test_rebalance_is_noop_without_budget(self, federation):
        assert federation.rebalance() == 0
        assert federation.num_samples == 18

    def test_rebalance_deterministic(self, tmp_path):
        kept = []
        for run in range(2):
            fed = FederatedReplayStore.create(tmp_path / f"fed-{run}")
            make_member(fed.root / "a", [0] * 20, seed=1)
            make_member(fed.root / "b", [1] * 8, seed=2)
            fed.adopt("a")
            fed.adopt("b")
            fed.configure(budget_bytes=fed.bytes_for(12))
            fed.rebalance()
            kept.append(fed.labels.tolist())
        assert kept[0] == kept[1]

    def test_rebalance_counter_persists(self, tmp_path):
        fed = FederatedReplayStore.create(tmp_path / "fed")
        make_member(fed.root / "a", [0] * 20, seed=1)
        fed.adopt("a")
        fed.configure(budget_bytes=fed.bytes_for(4))
        fed.rebalance()
        assert FederatedReplayStore.open(fed.root).rebalances == 1

    def test_eviction_flows_across_members(self, tmp_path):
        # Class-balanced pressure must shrink the over-represented OLD
        # member when a new class arrives, not just trim the newcomer.
        fed = FederatedReplayStore.create(tmp_path / "fed")
        make_member(fed.root / "old", [0] * 16, seed=1)
        fed.adopt("old")
        fed.configure(budget_bytes=fed.bytes_for(16))
        make_member(fed.root / "new", [1] * 16, seed=2)
        fed.adopt("new")
        fed.rebalance()
        samples = {name: row.num_samples for name, row in fed.stats().members.items()}
        assert samples["old"] < 16
        assert samples["new"] > 0
        assert fed.num_samples == 16


    def test_emptied_members_leave_the_federation(self, tmp_path):
        fed = FederatedReplayStore.create(tmp_path / "fed")
        rng = np.random.default_rng(0)
        for step in range(6):
            make_member(fed.root / f"task-{step}", rng.integers(0, step + 2, 8), seed=step)
            fed.adopt(f"task-{step}")
            if step == 0:
                fed.configure(budget_bytes=fed.bytes_for(9))
            fed.rebalance()
        # Emptied members leave (task-0, task-2); the survivors are the
        # ones the earlier class-balanced policy kept at seed 0.
        kept = {name: store.labels.tolist() for name, store in fed.members()}
        assert kept == {
            "task-1": [1], "task-3": [4], "task-4": [5, 3, 2], "task-5": [0, 0, 4, 3]
        }
        assert sorted(p.name for p in fed.root.iterdir() if p.is_dir()) == list(kept)
        assert list(fed.stats().members) == list(kept)
        assert FederatedReplayStore.open(fed.root).member_names == list(kept)


class TestClassBalance:
    def test_balanced_across_skewed_members(self, tmp_path):
        fed = FederatedReplayStore.create(tmp_path / "fed")
        make_member(fed.root / "t0", [0] * 30, seed=1)
        fed.adopt("t0")
        make_member(fed.root / "t1", [1] * 30, seed=2)
        fed.adopt("t1")
        make_member(fed.root / "t2", [2] * 6, seed=3)
        fed.adopt("t2")
        fed.configure(budget_bytes=fed.bytes_for(12))
        fed.rebalance()
        counts = fed.stats().class_counts
        assert set(counts) == {0, 1, 2}  # no class extinct
        assert max(counts.values()) - min(counts.values()) <= 2
        assert fed.num_samples == 12

    def test_minority_class_survives_majority_pressure(self, tmp_path):
        fed = FederatedReplayStore.create(tmp_path / "fed")
        make_member(fed.root / "rare", [5] * 2, seed=1)
        fed.adopt("rare")
        fed.configure(budget_bytes=fed.bytes_for(8))
        for step in range(3):
            make_member(fed.root / f"flood-{step}", [0] * 20, seed=2 + step)
            fed.adopt(f"flood-{step}")
            fed.rebalance()
            assert 5 in fed.stats().class_counts


class TestStats:
    def test_stats_aggregate_members(self, federation):
        stats = federation.stats()
        assert stats.num_members == 2
        assert stats.num_samples == 18
        assert list(stats.members) == ["task-0", "task-1"]
        assert stats.modelled_bytes == federation.bytes_for(18)
        assert stats.payload_bytes == sum(r.payload_bytes for r in stats.members.values())
        assert stats.payload_bytes <= stats.modelled_bytes + stats.num_members * 3
        assert stats.disk_bytes > stats.payload_bytes
        assert stats.format_overhead_bytes == stats.disk_bytes - stats.payload_bytes
        assert stats.class_counts == {0: 6, 1: 6, 2: 6}
        assert stats.budget_utilization is None

    def test_stats_track_budget(self, tmp_path):
        fed = FederatedReplayStore.create(tmp_path / "fed")
        make_member(fed.root / "a", [0] * 10, seed=1)
        fed.adopt("a")
        fed.configure(budget_bytes=fed.bytes_for(20))
        assert fed.stats().budget_utilization == pytest.approx(0.5)

    def test_empty_federation_reports_zero(self, tmp_path):
        fed = FederatedReplayStore.create(tmp_path / "fed")
        stats = fed.stats()
        assert (stats.num_members, stats.num_samples, stats.modelled_bytes) == (0, 0, 0)
        assert stats.payload_saving == 0.0
        with pytest.raises(StoreError, match="no sample geometry"):
            fed.bytes_for(1)


class TestOneLedger:
    """Budget, capacity and report all read ``latent_bytes``.

    At 15 frames x 12 channels a sample is 180 bits, not a whole number
    of bytes: a per-sample ledger (23 B + 8 B each) would keep 64 samples
    under 2,000 B and report 1,984 B beside a 1,952 B bitmap model.
    """

    def test_odd_bit_geometry_fills_the_budget(self, tmp_path):
        fed = FederatedReplayStore.create(tmp_path / "fed", budget_bytes=2000)
        make_member(fed.root / "a", [0, 1] * 50, seed=1, frames=15)
        fed.adopt("a")
        fed.rebalance()
        stats = fed.stats()
        assert stats.num_samples == 65
        assert stats.modelled_bytes == latent_bytes(15, 65, CHANNELS) == 1983
        assert stats.modelled_bytes <= 2000 < latent_bytes(15, 66, CHANNELS)
        assert stats.budget_utilization == pytest.approx(1983 / 2000)
        # The member row models the same samples with the same formula.
        assert stats.members["a"].modelled_bytes == 1983
