"""Simulation trace containers consumed by the hardware cost model.

A forward pass optionally records a :class:`SpikeTrace`: per-layer spike
counts and dimensions.  The :mod:`repro.hw` package turns these into
synaptic-operation (SOP), MAC, and memory-traffic counts — the basis of
the latency/energy model that substitutes for the paper's GPU
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["LayerTraceEntry", "SpikeTrace"]


@dataclass(frozen=True)
class LayerTraceEntry:
    """Per-layer activity record for one forward pass.

    Attributes:
        name: Layer identifier (``"hidden0"``, ..., ``"readout"``).
        n_in: Fan-in of the dense projection.
        n_out: Fan-out of the dense projection.
        recurrent: Whether the layer has an ``n_out x n_out`` recurrent
            projection.
        input_spike_count: Total presynaptic events into the feedforward
            projection, summed over timesteps and batch.
        output_spike_count: Total spikes emitted by the layer (0 for the
            readout).
        timesteps: Temporal extent of the pass.
        batch: Batch extent of the pass.
    """

    name: str
    n_in: int
    n_out: int
    recurrent: bool
    input_spike_count: float
    output_spike_count: float
    timesteps: int
    batch: int


@dataclass
class SpikeTrace:
    """Activity trace of one forward pass (all layers)."""

    entries: list[LayerTraceEntry] = field(default_factory=list)

    def add(self, entry: LayerTraceEntry) -> None:
        """Append one layer's activity record."""
        self.entries.append(entry)

