"""Tests for the cost model's latency and energy."""

import pytest

from repro.core.strategies import EpochCost
from repro.errors import ConfigError
from repro.hw import (
    CostModel,
    OpCounts,
    edge_gpu_like,
    embedded_neuromorphic,
    loihi_like,
)
from repro.hw.profiles import HardwareProfile
from repro.snn.state import LayerTraceEntry, SpikeTrace


def make_trace(timesteps, spikes_per_step=10.0, batch=2):
    trace = SpikeTrace()
    trace.add(
        LayerTraceEntry(
            name="hidden0", n_in=16, n_out=8, recurrent=True,
            input_spike_count=spikes_per_step * timesteps,
            output_spike_count=spikes_per_step * timesteps / 2,
            timesteps=timesteps, batch=batch,
        )
    )
    return trace


def make_cost(timesteps, decompressed=0):
    return EpochCost(
        train_traces=[make_trace(timesteps)],
        frozen_traces=[make_trace(timesteps)],
        decompressed_cells=decompressed,
    )


class TestProfiles:
    @pytest.mark.parametrize("factory", [embedded_neuromorphic, loihi_like, edge_gpu_like])
    def test_presets_valid(self, factory):
        profile = factory()
        assert profile.name

    def test_modes(self):
        assert embedded_neuromorphic().mode == "event"
        assert edge_gpu_like().mode == "dense"

    def test_validation(self):
        with pytest.raises(ConfigError):
            HardwareProfile(
                name="bad", mode="quantum", energy_per_sop=1, energy_per_mac=1,
                energy_per_neuron_update=1, energy_per_byte=1, sop_throughput=1,
                mac_throughput=1, update_throughput=1, codec_cell_throughput=1,
                energy_per_codec_cell=1, barrier_step_time=1, static_power=0,
            )
        with pytest.raises(ConfigError):
            HardwareProfile(
                name="bad", mode="event", energy_per_sop=0, energy_per_mac=1,
                energy_per_neuron_update=1, energy_per_byte=1, sop_throughput=1,
                mac_throughput=1, update_throughput=1, codec_cell_throughput=1,
                energy_per_codec_cell=1, barrier_step_time=1, static_power=0,
            )

    def test_barrier_time_adds_latency(self):
        model = CostModel(embedded_neuromorphic())
        with_barriers = model.counts_cost(OpCounts(barrier_steps=1000)).latency_s
        assert with_barriers == pytest.approx(
            1000 * embedded_neuromorphic().barrier_step_time
        )


class TestLatency:
    def test_latency_scales_with_timesteps(self):
        model = CostModel(embedded_neuromorphic())
        t100 = model.epoch_cost(make_cost(100)).latency_s
        t40 = model.epoch_cost(make_cost(40)).latency_s
        assert t100 / t40 == pytest.approx(2.5, rel=0.05)

    def test_codec_adds_latency(self):
        model = CostModel(embedded_neuromorphic())
        plain = model.epoch_cost(make_cost(40)).latency_s
        with_codec = model.epoch_cost(make_cost(40, decompressed=10_000_000)).latency_s
        assert with_codec > plain

    def test_dense_mode_uses_macs(self):
        event = CostModel(embedded_neuromorphic())
        dense = CostModel(edge_gpu_like())
        sparse_cost = make_cost(40)
        silent = EpochCost(
            train_traces=[make_trace(40, spikes_per_step=0.0)],
            frozen_traces=[], decompressed_cells=0,
        )
        # In event mode silence is nearly free (only neuron updates);
        # in dense mode the MACs dominate and do not shrink.
        assert event.epoch_cost(silent).latency_s < event.epoch_cost(sparse_cost).latency_s
        assert dense.counts_cost(OpCounts(macs=1e9)).latency_s == pytest.approx(
            1e9 / edge_gpu_like().mac_throughput
        )

    def test_run_and_cumulative(self):
        model = CostModel(embedded_neuromorphic())

        class FakeResult:
            epoch_costs = [make_cost(40 + 10 * k) for k in range(5)]
            prepare_cost = make_cost(40)

        result = FakeResult()
        per_epoch = [model.epoch_cost(cost) for cost in result.epoch_costs]
        prepare = model.epoch_cost(result.prepare_cost)
        for key in ("latency_s", "energy_j"):
            values = [getattr(cost, key) for cost in per_epoch]
            three = model.run_cost(result, 3, include_prepare=False)
            assert getattr(three, key) == pytest.approx(sum(values[:3]))
            assert getattr(model.run_cost(result), key) == pytest.approx(
                sum(values) + getattr(prepare, key)
            )
            assert getattr(
                model.run_cost(result, include_prepare=False), key
            ) == pytest.approx(sum(values))
            assert getattr(model.run_cost(result, 3), key) == pytest.approx(
                sum(values[:3]) + getattr(prepare, key)
            )


class TestEnergy:
    def test_energy_scales_with_timesteps(self):
        model = CostModel(embedded_neuromorphic())
        e100 = model.epoch_cost(make_cost(100)).energy_j
        e40 = model.epoch_cost(make_cost(40)).energy_j
        assert e100 > e40

    def test_static_term_tracks_latency(self):
        base = embedded_neuromorphic()
        hot = HardwareProfile(**{**base.__dict__, "static_power": 100.0})
        cold = HardwareProfile(**{**base.__dict__, "static_power": 0.0})
        cost = make_cost(40)
        assert CostModel(hot).epoch_cost(cost).energy_j > CostModel(cold).epoch_cost(cost).energy_j

    @pytest.mark.parametrize("factory", [embedded_neuromorphic, loihi_like, edge_gpu_like])
    def test_static_term_is_power_times_latency(self, factory):
        base = factory()
        cold = HardwareProfile(**{**base.__dict__, "static_power": 0.0})
        cost = make_cost(40, decompressed=1000)
        priced = CostModel(base).epoch_cost(cost)
        dynamic = CostModel(cold).epoch_cost(cost).energy_j
        assert priced.energy_j == pytest.approx(
            dynamic + base.static_power * priced.latency_s
        )

    def test_more_spikes_more_energy_in_event_mode(self):
        model = CostModel(embedded_neuromorphic())
        quiet = EpochCost(train_traces=[make_trace(40, spikes_per_step=1.0)])
        busy = EpochCost(train_traces=[make_trace(40, spikes_per_step=50.0)])
        assert model.epoch_cost(busy).energy_j > model.epoch_cost(quiet).energy_j


def test_one_cost_model_surface():
    import repro.hw

    for name in ("LatencyModel", "EnergyModel", "OpsCounter", "build_cost_report"):
        assert not hasattr(repro.hw, name), name
    with pytest.raises(TypeError):
        EpochCost(timesteps=40)
    with pytest.raises(TypeError):
        CostModel().report([], include_prepare=False)
