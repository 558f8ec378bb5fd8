"""Analytic hardware cost model: latency and energy.

The paper reports processing time and energy measured on an RTX 4090 Ti
while motivating *embedded neuromorphic* deployment.  Neither target is
measurable in this environment, so this package substitutes an analytic
model driven by **counted operations from the actual simulation
traces** (spikes, synaptic events, MACs, memory traffic).  The paper's
latency/energy results are monotone in timesteps and op counts, so the
shapes — who wins, by what factor, where the crossovers sit — carry over.

Model
-----
- :class:`HardwareProfile` — per-op energies and throughputs; presets for
  an event-driven embedded neuromorphic target (default), a Loihi-like
  chip, and a dense edge-GPU-like target.
- :class:`CostModel` — counts each epoch's
  :class:`~repro.snn.state.SpikeTrace` ledgers once into
  :class:`OpCounts` (SOPs, MACs, neuron updates, weight-memory traffic)
  and prices them as one :class:`Cost` (latency and energy) per op
  count, per epoch, or per run; :meth:`CostModel.report` builds a
  :class:`CostReport` of normalized method-vs-method rows.

Latent memory (Fig. 12) is not modelled here: it is counted by
:func:`repro.replaystore.format.latent_bytes`, the one byte formula the
replay buffers, stores and federation budget share.
"""

from repro.hw.cost import Cost, CostModel, CostReport, MethodCost, OpCounts
from repro.hw.profiles import (
    HardwareProfile,
    edge_gpu_like,
    embedded_neuromorphic,
    loihi_like,
)

__all__ = [
    "HardwareProfile",
    "embedded_neuromorphic",
    "loihi_like",
    "edge_gpu_like",
    "OpCounts",
    "Cost",
    "CostModel",
    "MethodCost",
    "CostReport",
]
