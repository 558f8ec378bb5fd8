"""Analytic hardware cost models: latency and energy.

The paper reports processing time and energy measured on an RTX 4090 Ti
while motivating *embedded neuromorphic* deployment.  Neither target is
measurable in this environment, so this package substitutes analytic
models driven by **counted operations from the actual simulation
traces** (spikes, synaptic events, MACs, memory traffic).  The paper's
latency/energy results are monotone in timesteps and op counts, so the
shapes — who wins, by what factor, where the crossovers sit — carry over.

Models
------
- :class:`HardwareProfile` — per-op energies and throughputs; presets for
  an event-driven embedded neuromorphic target (default), a Loihi-like
  chip, and a dense edge-GPU-like target.
- :class:`OpsCounter` — turns :class:`~repro.snn.state.SpikeTrace` into
  :class:`OpCounts` (SOPs, MACs, neuron updates, weight-memory traffic).
- :class:`LatencyModel` / :class:`EnergyModel` — per-epoch and per-run
  costs from :class:`~repro.core.strategies.EpochCost` ledgers.
- :class:`CostReport` — normalized method-vs-method tables.

Latent memory (Fig. 12) is not modelled here: it is counted by
:func:`repro.replaystore.format.latent_bytes`, the one byte formula the
replay buffers, stores and federation budget share.
"""

from repro.hw.energy import EnergyModel
from repro.hw.latency import LatencyModel
from repro.hw.ops_counter import OpCounts, OpsCounter
from repro.hw.profiles import (
    HardwareProfile,
    edge_gpu_like,
    embedded_neuromorphic,
    loihi_like,
)
from repro.hw.report import CostReport, MethodCost, build_cost_report

__all__ = [
    "HardwareProfile",
    "embedded_neuromorphic",
    "loihi_like",
    "edge_gpu_like",
    "OpCounts",
    "OpsCounter",
    "LatencyModel",
    "EnergyModel",
    "CostReport",
    "MethodCost",
    "build_cost_report",
]
