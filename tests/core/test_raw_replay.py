"""Tests for the raw-input rehearsal baseline."""

import pytest

from repro.core import RawInputReplay, Replay4NCL


@pytest.fixture(scope="module")
def raw_result(ci_preset, ci_pretrained, ci_split):
    return RawInputReplay(ci_preset.experiment).run(ci_pretrained.network, ci_split)


class TestRawInputReplay:
    def test_trains_whole_network(self, raw_result):
        assert raw_result.insertion_layer == 0

    def test_preserves_old_knowledge(self, raw_result, ci_pretrained):
        # Rehearsal with raw inputs must beat catastrophic forgetting.
        assert raw_result.final_old_accuracy > 0.4

    def test_learns_new_task(self, raw_result):
        assert raw_result.final_new_accuracy >= 0.5

    def test_stores_more_than_latent_replay(
        self, raw_result, ci_preset, ci_pretrained, ci_split
    ):
        # The memory motivation for *latent* replay: raw inputs at the
        # full channel count and timestep dwarf layer-3 activations at
        # the reduced timestep.
        latent = Replay4NCL(ci_preset.experiment).run(ci_pretrained.network, ci_split)
        assert raw_result.latent_storage_bytes > latent.latent_storage_bytes

    def test_no_decompression(self, raw_result):
        assert all(c.decompressed_cells == 0 for c in raw_result.epoch_costs)

    def test_runs_at_pretrain_timesteps(self, raw_result, ci_preset):
        assert raw_result.timesteps == ci_preset.experiment.pretrain.timesteps
