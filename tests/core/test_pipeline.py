"""Tests for the Alg. 1 pipeline orchestration."""

import numpy as np
import pytest

from repro.core import SpikingLR
from repro.core.pipeline import PretrainResult, pretrain


class TestPretrain:
    def test_returns_trained_network(self, ci_pretrained, ci_preset):
        assert isinstance(ci_pretrained, PretrainResult)
        assert ci_pretrained.network.config == ci_preset.experiment.network

    def test_losses_decrease(self, ci_pretrained):
        losses = ci_pretrained.history.losses
        assert losses[-1] < losses[0]

    def test_deterministic_given_seed(self, ci_preset, ci_split, ci_pretrained):
        again = pretrain(ci_preset.experiment, ci_split)
        assert again.test_accuracy == pytest.approx(ci_pretrained.test_accuracy)
        for a, b in zip(
            again.network.parameters(), ci_pretrained.network.parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data)


class TestMethodRun:
    def test_runs_from_the_pretrained_network(
        self, ci_preset, ci_pretrained, ci_split
    ):
        result = SpikingLR(ci_preset.experiment).run(ci_pretrained.network, ci_split)
        assert result.method == "spikinglr"
        assert result.network is not ci_pretrained.network

    def test_repeatable(self, ci_preset, ci_pretrained, ci_split):
        a = SpikingLR(ci_preset.experiment).run(ci_pretrained.network, ci_split)
        b = SpikingLR(ci_preset.experiment).run(ci_pretrained.network, ci_split)
        assert a.final_old_accuracy == pytest.approx(b.final_old_accuracy)
        assert a.final_new_accuracy == pytest.approx(b.final_new_accuracy)
