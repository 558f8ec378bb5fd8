"""Tests for the cost report (``CostModel.report``)."""

import pytest

from repro.core.strategies import EpochCost, NCLResult
from repro.errors import ConfigError
from repro.hw import CostModel, edge_gpu_like
from repro.snn.state import LayerTraceEntry, SpikeTrace
from repro.training.metrics import TrainingHistory


def make_result(timesteps, latent_bytes=1000, old=0.9, new=0.8, epochs=3):
    trace = SpikeTrace()
    trace.add(
        LayerTraceEntry(
            name="hidden0", n_in=8, n_out=4, recurrent=True,
            input_spike_count=100.0 * timesteps / 10, output_spike_count=50.0,
            timesteps=timesteps, batch=2,
        )
    )
    cost = EpochCost(train_traces=[trace])
    return NCLResult(
        method="m", insertion_layer=1, timesteps=timesteps,
        history=TrainingHistory(), final_old_accuracy=old,
        final_new_accuracy=new, final_overall_accuracy=(old + new) / 2,
        latent_storage_bytes=latent_bytes, latent_stored_frames=timesteps,
        epoch_costs=[cost] * epochs, prepare_cost=EpochCost(),
    )


class TestCostReport:
    def test_reference_is_first(self):
        report = CostModel().report([
            ("sota", make_result(100)),
            ("ours", make_result(40, latent_bytes=800)),
        ])
        assert report.rows[0].latency_ratio == pytest.approx(1.0)
        assert report.rows[0].energy_ratio == pytest.approx(1.0)

    def test_faster_method_has_speedup(self):
        report = CostModel().report([
            ("sota", make_result(100)),
            ("ours", make_result(40, latent_bytes=800)),
        ])
        ours = report.rows[1]
        assert ours.latency_speedup > 1.0
        assert ours.energy_saving > 0.0
        assert ours.memory_saving == pytest.approx(0.2)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            CostModel().report([])

    def test_zero_reference_memory(self):
        report = CostModel().report([
            ("naive", make_result(100, latent_bytes=0)),
            ("ours", make_result(40, latent_bytes=800)),
        ])
        # No reference buffer: ratios stay 1.0 rather than dividing by 0.
        assert report.rows[1].memory_ratio == 1.0

    def test_format_table(self):
        report = CostModel().report([
            ("sota", make_result(100)),
            ("ours", make_result(40)),
        ])
        table = report.format_table()
        assert "sota" in table and "ours" in table
        assert "embedded-neuromorphic" in table
        assert "speedup" in table

    def test_rows_include_prepare(self):
        heavy_prepare = make_result(100)
        heavy_prepare.prepare_cost = heavy_prepare.epoch_costs[0]
        model = CostModel()
        row = model.report([("m", heavy_prepare)]).rows[0]
        without = model.run_cost(heavy_prepare, include_prepare=False)
        assert row.latency_s > without.latency_s
        assert row.latency_s == model.run_cost(heavy_prepare).latency_s
        assert row.energy_j == model.run_cost(heavy_prepare).energy_j

    def test_profile_comes_from_the_model(self):
        report = CostModel(edge_gpu_like()).report([("m", make_result(40))])
        assert report.profile_name == edge_gpu_like().name
        assert "edge-gpu-like" in report.format_table()
