"""Tests for the latency and energy models."""

import pytest

from repro.core.strategies import EpochCost
from repro.errors import ConfigError
from repro.hw import (
    EnergyModel,
    LatencyModel,
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
        timesteps=timesteps,
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
        model = LatencyModel(embedded_neuromorphic())
        with_barriers = model.counts_latency(OpCounts(barrier_steps=1000))
        assert with_barriers == pytest.approx(
            1000 * embedded_neuromorphic().barrier_step_time
        )


class TestLatencyModel:
    def test_latency_scales_with_timesteps(self):
        model = LatencyModel(embedded_neuromorphic())
        t100 = model.epoch_latency(make_cost(100))
        t40 = model.epoch_latency(make_cost(40))
        assert t100 / t40 == pytest.approx(2.5, rel=0.05)

    def test_codec_adds_latency(self):
        model = LatencyModel(embedded_neuromorphic())
        plain = model.epoch_latency(make_cost(40))
        with_codec = model.epoch_latency(make_cost(40, decompressed=10_000_000))
        assert with_codec > plain

    def test_dense_mode_uses_macs(self):
        event = LatencyModel(embedded_neuromorphic())
        dense = LatencyModel(edge_gpu_like())
        sparse_cost = make_cost(40)
        silent = EpochCost(
            train_traces=[make_trace(40, spikes_per_step=0.0)],
            frozen_traces=[], decompressed_cells=0, timesteps=40,
        )
        # In event mode silence is nearly free (only neuron updates);
        # in dense mode the MACs dominate and do not shrink.
        assert event.epoch_latency(silent) < event.epoch_latency(sparse_cost)
        assert dense.counts_latency(OpCounts(macs=1e9)) == pytest.approx(
            1e9 / edge_gpu_like().mac_throughput
        )

    def test_run_and_cumulative(self):
        model = LatencyModel(embedded_neuromorphic())

        class FakeResult:
            epoch_costs = [make_cost(40)] * 5
            prepare_cost = make_cost(40)

        result = FakeResult()
        per_epoch = model.run_epoch_latencies(result)
        assert len(per_epoch) == 5
        assert model.cumulative_latency(result, 3) == pytest.approx(sum(per_epoch[:3]))
        assert model.run_latency(result) == pytest.approx(
            sum(per_epoch) + model.epoch_latency(result.prepare_cost)
        )
        assert model.run_latency(result, include_prepare=False) == pytest.approx(
            sum(per_epoch)
        )


class TestEnergyModel:
    def test_energy_scales_with_timesteps(self):
        model = EnergyModel(embedded_neuromorphic())
        e100 = model.epoch_energy(make_cost(100))
        e40 = model.epoch_energy(make_cost(40))
        assert e100 > e40

    def test_static_term_tracks_latency(self):
        base = embedded_neuromorphic()
        hot = HardwareProfile(**{**base.__dict__, "static_power": 100.0})
        cold = HardwareProfile(**{**base.__dict__, "static_power": 0.0})
        cost = make_cost(40)
        assert EnergyModel(hot).epoch_energy(cost) > EnergyModel(cold).epoch_energy(cost)

    def test_more_spikes_more_energy_in_event_mode(self):
        model = EnergyModel(embedded_neuromorphic())
        quiet = EpochCost(train_traces=[make_trace(40, spikes_per_step=1.0)], timesteps=40)
        busy = EpochCost(train_traces=[make_trace(40, spikes_per_step=50.0)], timesteps=40)
        assert model.epoch_energy(busy) > model.epoch_energy(quiet)
