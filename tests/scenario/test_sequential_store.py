"""Store-federated sequential runs: the long-task-sequence harness.

Scenario-level acceptance tests for
`run_scenario(SequentialScenario(...), replay=ReplaySpec(...))`: a
3-step class-incremental stream whose replay memory lives in a
per-step federation of on-disk stores must

- reproduce the dense in-memory trajectory **bitwise** at the same seed,
  including under the benchmark's ``ReplaySpec(prefetch=True)``, a
  field kept for compatibility that has no effect;
- hold exactly the replay raster the dense path holds: each step reads
  its member store back once, so its resident replay bytes are that
  member's decoded ``[T, n, C]`` float32 raster;
- never let the federation exceed a global byte budget, no matter how
  many steps the stream runs.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import Replay4NCL, ReplaySpec
from repro.core.pipeline import pretrain
from repro.data.synthetic_shd import SyntheticSHD
from repro.data.tasks import make_class_incremental
from repro.eval.scale import get_scale
from repro.replaystore import FederatedReplayStore
from repro.scenario import SequentialScenario, run_scenario

SHARD_SAMPLES = 4
FLOAT32_BYTES = 4  # one decoded replay cell
#: ci has 5 classes: pre-train on 2, learn classes 2, 3, 4 in three steps.
STREAM = SequentialScenario(steps_count=3, base_classes=2)


@pytest.fixture(scope="module")
def scenario():
    preset = get_scale("ci")
    generator = SyntheticSHD(preset.shd, seed=preset.experiment.seed)
    exp = preset.experiment.replace(num_pretrain_classes=2)
    base_split = make_class_incremental(
        generator,
        exp.samples_per_class,
        exp.test_samples_per_class,
        num_pretrain_classes=2,
    )
    return exp, generator, pretrain(exp, base_split)


def run_stream(scenario, replay=None, stream=STREAM):
    exp, generator, pretrained = scenario
    return run_scenario(
        stream,
        Replay4NCL,
        generator=generator,
        experiment=exp,
        pretrained=pretrained,
        replay=replay,
    )


@pytest.fixture(scope="module")
def dense_result(scenario):
    return run_stream(scenario)


@pytest.fixture(scope="module")
def store_result(scenario, tmp_path_factory):
    """Store-backed run with the spec the end-to-end benchmark passes."""
    root = tmp_path_factory.mktemp("seq-fed") / "store"
    return run_stream(
        scenario,
        ReplaySpec(store_dir=root, shard_samples=SHARD_SAMPLES, prefetch=True),
    )


def assert_trajectory_identical(dense, stored):
    np.testing.assert_array_equal(dense.accuracy_matrix, stored.accuracy_matrix)
    assert len(dense.steps) == len(stored.steps)
    for mem, disk in zip(dense.steps, stored.steps):
        assert len(mem.history) == len(disk.history)
        for m, d in zip(mem.history, disk.history):
            assert m.loss == d.loss
            assert m.old_task_accuracy == d.old_task_accuracy
            assert m.new_task_accuracy == d.new_task_accuracy
            assert m.overall_accuracy == d.overall_accuracy
        for p_mem, p_disk in zip(
            mem.network.parameters(), disk.network.parameters()
        ):
            np.testing.assert_array_equal(p_mem.data, p_disk.data)


class TestBitwiseParity:
    def test_matches_dense_trajectory(self, dense_result, store_result):
        assert_trajectory_identical(dense_result, store_result)

    def test_storage_model_is_path_independent(self, dense_result, store_result):
        for mem, disk in zip(dense_result.steps, store_result.steps):
            assert mem.latent_storage_bytes == disk.latent_storage_bytes
            assert mem.latent_stored_frames == disk.latent_stored_frames


class TestResidentReplay:
    def test_resident_bytes_are_the_step_member_raster(self, scenario, store_result):
        """Per step: exactly the decoded raster of that step's member."""
        federation = FederatedReplayStore.open(store_result.store_root)
        method = Replay4NCL(scenario[0])
        for k, step in enumerate(store_result.steps):
            member = federation.member(f"step-{k:03d}")
            meta = member.meta
            assert meta.shard_samples == SHARD_SAMPLES
            frames = (
                meta.generated_timesteps
                if method.decompress_for_replay()
                else meta.stored_frames
            )
            assert step.replay_peak_resident_bytes == (
                FLOAT32_BYTES * frames * member.num_samples * meta.num_channels
            )

    def test_dense_runs_report_zero(self, dense_result):
        assert all(
            step.replay_peak_resident_bytes == 0 for step in dense_result.steps
        )


class TestReadOnce:
    def test_each_step_decodes_its_member_once(self, scenario, dense_result, tmp_path):
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            result = run_stream(
                scenario,
                ReplaySpec(store_dir=tmp_path / "fed", shard_samples=SHARD_SAMPLES),
            )
        assert_trajectory_identical(dense_result, result)
        federation = FederatedReplayStore.open(result.store_root)
        shards = sum(store.num_shards for _name, store in federation.members())
        counters = {e.name: e.total for e in recorder.metrics()}
        assert counters["store.shards_decoded"] == shards
        gathers = [s for s in recorder.spans() if s.name == "store.gather"]
        assert len(gathers) == len(result.steps)


class TestFederationArtifacts:
    def test_one_member_per_step(self, store_result):
        federation = FederatedReplayStore.open(store_result.store_root)
        assert federation.member_names == ["step-000", "step-001", "step-002"]
        for k, step in enumerate(store_result.steps):
            member = federation.member(f"step-{k:03d}")
            assert step.replay_store_path == str(member.root)
            assert member.num_samples > 0

    def test_replay_pool_grows_with_seen_classes(self, store_result):
        federation = FederatedReplayStore.open(store_result.store_root)
        per_step = [
            set(np.unique(federation.member(name).labels))
            for name in federation.member_names
        ]
        assert per_step[0] < per_step[1] < per_step[2]

    def test_federated_stats_crosscheck(self, store_result):
        stats = FederatedReplayStore.open(store_result.store_root).stats()
        assert stats.num_members == 3
        assert stats.budget_utilization is None  # unbudgeted
        assert stats.payload_bytes <= stats.modelled_bytes
        assert stats.disk_bytes > stats.payload_bytes

    def test_dense_result_has_no_store(self, dense_result):
        assert dense_result.store_root is None
        assert all(s.replay_store_path is None for s in dense_result.steps)


class TestRerun:
    def test_existing_root_refused_without_overwrite(self, scenario, tmp_path):
        from repro.errors import StoreError

        one_step = SequentialScenario(steps_count=1, base_classes=2)
        spec = ReplaySpec(
            store_dir=tmp_path / "fed", shard_samples=SHARD_SAMPLES
        )
        first = run_stream(scenario, spec, one_step)
        with pytest.raises(StoreError, match="already exists"):
            run_stream(scenario, spec, one_step)
        rerun = run_stream(
            scenario,
            ReplaySpec(
                store_dir=tmp_path / "fed",
                shard_samples=SHARD_SAMPLES,
                overwrite=True,
            ),
            one_step,
        )
        assert_trajectory_identical(first, rerun)
        federation = FederatedReplayStore.open(rerun.store_root)
        assert federation.member_names == ["step-000"]


class TestGlobalBudget:
    def test_budget_holds_across_the_stream(self, scenario, tmp_path):
        # Tight budget: roughly one step's worth of replay for a
        # three-step stream, so rebalancing must evict across members.
        probe = FederatedReplayStore.open
        result = run_stream(
            scenario,
            ReplaySpec(store_dir=tmp_path / "budgeted", shard_samples=SHARD_SAMPLES),
        )
        unbudgeted = probe(result.store_root).num_samples
        budget = probe(result.store_root).bytes_for(10)
        budgeted = run_stream(
            scenario,
            ReplaySpec(
                store_dir=tmp_path / "budgeted-tight",
                shard_samples=SHARD_SAMPLES,
                federation_budget_bytes=budget,
            ),
        )
        federation = probe(budgeted.store_root)
        assert federation.model_bytes() <= budget
        assert not federation.over_budget()
        assert federation.num_samples == 10 < unbudgeted
        assert federation.stats().modelled_bytes <= budget
        # The budget caps the archive *after* training: trajectories are
        # still the dense ones (training replay is the step's own set).
        assert_trajectory_identical(result, budgeted)
