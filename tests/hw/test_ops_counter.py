"""Tests for OpCounts and the op-counting rules."""

import pytest

from repro.errors import ConfigError
from repro.hw.cost import (
    BACKWARD_MULTIPLIER,
    OpCounts,
    count_codec,
    count_forward,
    count_training,
)
from repro.snn.state import LayerTraceEntry, SpikeTrace


def make_trace(input_spikes=100.0, output_spikes=50.0, recurrent=True,
               n_in=10, n_out=5, timesteps=8, batch=2):
    trace = SpikeTrace()
    trace.add(
        LayerTraceEntry(
            name="hidden0", n_in=n_in, n_out=n_out, recurrent=recurrent,
            input_spike_count=input_spikes, output_spike_count=output_spikes,
            timesteps=timesteps, batch=batch,
        )
    )
    return trace


class TestOpCounts:
    def test_add(self):
        a = OpCounts(sops=1, macs=2, neuron_updates=3, memory_bytes=4, codec_cells=5)
        b = OpCounts(sops=10, macs=20, neuron_updates=30, memory_bytes=40, codec_cells=50)
        c = a + b
        assert (c.sops, c.macs, c.neuron_updates, c.memory_bytes, c.codec_cells) == (
            11, 22, 33, 44, 55,
        )

    def test_scaled(self):
        a = OpCounts(sops=2, macs=4)
        b = a.scaled(0.5)
        assert b.sops == 1 and b.macs == 2


class TestForwardCounts:
    def test_sop_rule(self):
        # feedforward: 100 spikes x fanout 5; recurrent: 50 x 5
        counts = count_forward(make_trace())
        assert counts.sops == 100 * 5 + 50 * 5

    def test_sop_rule_no_recurrent(self):
        counts = count_forward(make_trace(recurrent=False))
        assert counts.sops == 100 * 5

    def test_mac_rule(self):
        counts = count_forward(make_trace())
        assert counts.macs == 8 * 2 * (10 * 5 + 5 * 5)

    def test_macs_independent_of_spikes(self):
        dense = count_forward(make_trace(input_spikes=1000.0))
        sparse = count_forward(make_trace(input_spikes=1.0))
        assert dense.macs == sparse.macs
        assert dense.sops > sparse.sops

    def test_neuron_update_rule(self):
        counts = count_forward(make_trace())
        assert counts.neuron_updates == 8 * 2 * 5

    def test_memory_positive(self):
        assert count_forward(make_trace()).memory_bytes > 0

    def test_multi_layer_sums(self):
        trace = make_trace()
        trace.add(trace.entries[0])
        double = count_forward(trace)
        single = count_forward(make_trace())
        assert double.sops == 2 * single.sops


class TestTrainingCounts:
    def test_backward_multiplier(self):
        assert BACKWARD_MULTIPLIER == 2.0
        fwd = count_forward(make_trace())
        train = count_training(make_trace())
        assert train.sops == pytest.approx(3.0 * fwd.sops)
        assert train.macs == pytest.approx(3.0 * fwd.macs)

    def test_training_is_forward_plus_scaled_backward(self):
        fwd = count_forward(make_trace())
        assert count_training(make_trace()) == fwd + fwd.scaled(BACKWARD_MULTIPLIER)


class TestCodecCounts:
    def test_cells_counted(self):
        counts = count_codec(800)
        assert counts.codec_cells == 800
        assert counts.memory_bytes == 100  # 1 bit per cell

    def test_zero_cells(self):
        assert count_codec(0).codec_cells == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            count_codec(-1)
