"""The cost model: counted ops -> latency and energy on a hardware profile.

Counting rules (per field of :class:`OpCounts`):

- **SOPs** — event-driven synaptic operations: every presynaptic spike
  triggers one synaptic update per outgoing connection, so a layer with
  fan-out ``n_out`` charges ``input_spikes * n_out`` feedforward SOPs
  plus ``output_spikes * n_out`` recurrent SOPs when a recurrent
  projection exists.
- **MACs** — dense execution work: ``T * B * (n_in * n_out [+ n_out^2])``
  independent of sparsity (a GPU multiplies zeros too).
- **Neuron updates** — one leak/compare per neuron per timestep:
  ``T * B * n_out``.
- **Weight-memory bytes** — event mode reads one 4-byte weight per SOP;
  dense mode streams the full weight matrix once per timestep per batch
  row is *not* charged (weights are cached); instead it charges
  activations: ``4 bytes * T * B * (n_in + n_out)``.

Backward passes of BPTT are charged as :data:`BACKWARD_MULTIPLIER` times
the forward counts — the standard two-matmuls-per-matmul rule of
reverse-mode AD.

Pricing: event-mode profiles time the SOP stream and neuron updates,
dense profiles the MAC stream; codec work is timed on its own path in
both modes (the Fig. 7 cycle is memory-bound, not compute-bound).
``energy = dynamic + static_power * latency``: dynamic charges each op
class its profile energy, and the static term is what keeps energy
savings below latency savings at late insertion layers (paper Fig. 10c
vs 10b).  Latency and energy are therefore priced together, from one
count of each epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.strategies import EpochCost, NCLResult
from repro.errors import ConfigError
from repro.hw.profiles import HardwareProfile, embedded_neuromorphic
from repro.snn.state import SpikeTrace

__all__ = [
    "BACKWARD_MULTIPLIER",
    "OpCounts",
    "count_forward",
    "count_training",
    "count_codec",
    "Cost",
    "CostModel",
    "MethodCost",
    "CostReport",
]

#: Backward-pass ops charged per forward op of a training pass.
BACKWARD_MULTIPLIER = 2.0

_WEIGHT_BYTES = 4.0


@dataclass(frozen=True)
class OpCounts:
    """Operation totals for some unit of work (a pass, an epoch, a run).

    ``barrier_steps`` counts timestep synchronisation barriers: event-
    driven hardware advances in lockstep, one barrier per layer per
    simulated timestep, regardless of how many spikes flew.  This is the
    term that makes latency scale with the timestep count even when a
    zero-stuffed replay carries the same number of spikes — the physical
    basis of the paper's timestep-reduction latency savings.
    """

    sops: float = 0.0
    macs: float = 0.0
    neuron_updates: float = 0.0
    memory_bytes: float = 0.0
    codec_cells: float = 0.0
    barrier_steps: float = 0.0

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            sops=self.sops + other.sops,
            macs=self.macs + other.macs,
            neuron_updates=self.neuron_updates + other.neuron_updates,
            memory_bytes=self.memory_bytes + other.memory_bytes,
            codec_cells=self.codec_cells + other.codec_cells,
            barrier_steps=self.barrier_steps + other.barrier_steps,
        )

    def scaled(self, factor: float) -> "OpCounts":
        """New counts with every component multiplied by ``factor``."""
        return OpCounts(
            sops=self.sops * factor,
            macs=self.macs * factor,
            neuron_updates=self.neuron_updates * factor,
            memory_bytes=self.memory_bytes * factor,
            codec_cells=self.codec_cells * factor,
            barrier_steps=self.barrier_steps * factor,
        )


def count_forward(trace: SpikeTrace) -> OpCounts:
    """Forward-pass counts of one trace."""
    sops = macs = updates = mem = barriers = 0.0
    for e in trace.entries:
        sops += e.input_spike_count * e.n_out
        dense = e.n_in * e.n_out
        if e.recurrent:
            sops += e.output_spike_count * e.n_out
            dense += e.n_out * e.n_out
        macs += float(e.timesteps) * e.batch * dense
        updates += float(e.timesteps) * e.batch * e.n_out
        mem += _WEIGHT_BYTES * (
            e.input_spike_count * e.n_out  # event-mode weight reads
            + float(e.timesteps) * e.batch * (e.n_in + e.n_out)  # activations
        )
        # One sync barrier per layer per timestep per sample (embedded
        # deployments process samples sequentially, batch=1 streams).
        barriers += float(e.timesteps) * e.batch
    return OpCounts(
        sops=sops,
        macs=macs,
        neuron_updates=updates,
        memory_bytes=mem,
        barrier_steps=barriers,
    )


def count_training(trace: SpikeTrace) -> OpCounts:
    """Forward + backward counts of one training pass."""
    forward = count_forward(trace)
    return forward + forward.scaled(BACKWARD_MULTIPLIER)


def count_codec(cells: int) -> OpCounts:
    """Counts for touching ``cells`` raster cells in a codec pass."""
    if cells < 0:
        raise ConfigError(f"cells must be >= 0, got {cells}")
    # One byte-level touch per cell (read-modify-write amortised).
    return OpCounts(codec_cells=float(cells), memory_bytes=float(cells) / 8.0)


@dataclass(frozen=True)
class Cost:
    """Latency (s) and energy (J) of one unit of work."""

    latency_s: float
    energy_j: float


class CostModel:
    """Prices counted ops on one hardware profile.

    Each epoch's :class:`~repro.core.strategies.EpochCost` is counted
    once, and its latency and energy come from that one count.
    """

    def __init__(self, profile: HardwareProfile | None = None):
        self.profile = profile or embedded_neuromorphic()

    def counts_cost(self, counts: OpCounts) -> Cost:
        """Latency and energy to execute ``counts`` on the profile."""
        p = self.profile
        if p.mode == "event":
            compute_s = counts.sops / p.sop_throughput + (
                counts.neuron_updates / p.update_throughput
            )
            compute_j = (
                counts.sops * p.energy_per_sop
                + counts.neuron_updates * p.energy_per_neuron_update
            )
        else:
            compute_s = counts.macs / p.mac_throughput
            compute_j = counts.macs * p.energy_per_mac
        codec = counts.codec_cells / p.codec_cell_throughput
        barriers = counts.barrier_steps * p.barrier_step_time
        latency = compute_s + codec + barriers
        dynamic = (
            compute_j
            + counts.memory_bytes * p.energy_per_byte
            + counts.codec_cells * p.energy_per_codec_cell
        )
        return Cost(latency_s=latency, energy_j=dynamic + p.static_power * latency)

    def epoch_cost(self, cost: EpochCost) -> Cost:
        """Latency and energy of one epoch's operation counts."""
        total = OpCounts()
        for trace in cost.train_traces:
            total = total + count_training(trace)
        for trace in cost.frozen_traces:
            total = total + count_forward(trace)
        total = total + count_codec(cost.decompressed_cells)
        return self.counts_cost(total)

    def run_cost(
        self, result: NCLResult, epochs: int | None = None, include_prepare: bool = True
    ) -> Cost:
        """Cost of a run's first ``epochs`` epochs (all when None).

        ``include_prepare`` adds the latent-generation phase; the
        cumulative bars of Fig. 11b/c leave it out.
        """
        per_epoch = [self.epoch_cost(cost) for cost in result.epoch_costs[:epochs]]
        latency = sum(c.latency_s for c in per_epoch)
        energy = sum(c.energy_j for c in per_epoch)
        if include_prepare:
            prepare = self.epoch_cost(result.prepare_cost)
            latency += prepare.latency_s
            energy += prepare.energy_j
        return Cost(latency_s=latency, energy_j=energy)

    def report(self, results: list[tuple[str, NCLResult]]) -> CostReport:
        """A :class:`CostReport` of whole runs; the first is the reference.

        ``results`` pairs a display label with an :class:`NCLResult` (labels
        let callers distinguish e.g. methods across insertion layers).
        """
        if not results:
            raise ConfigError("need at least one result to report on")
        costs = [self.run_cost(result) for _, result in results]
        ref = costs[0]
        ref_bytes = results[0][1].latent_storage_bytes
        rows = [
            MethodCost(
                label=label,
                latency_s=cost.latency_s,
                energy_j=cost.energy_j,
                latent_bytes=result.latent_storage_bytes,
                old_accuracy=result.final_old_accuracy,
                new_accuracy=result.final_new_accuracy,
                latency_ratio=cost.latency_s / ref.latency_s if ref.latency_s else 1.0,
                energy_ratio=cost.energy_j / ref.energy_j if ref.energy_j else 1.0,
                memory_ratio=(
                    result.latent_storage_bytes / ref_bytes if ref_bytes else 1.0
                ),
            )
            for (label, result), cost in zip(results, costs)
        ]
        return CostReport(profile_name=self.profile.name, rows=rows)


@dataclass(frozen=True)
class MethodCost:
    """Absolute and normalized costs of one NCL run."""

    label: str
    latency_s: float
    energy_j: float
    latent_bytes: int
    old_accuracy: float
    new_accuracy: float
    latency_ratio: float = 1.0
    energy_ratio: float = 1.0
    memory_ratio: float = 1.0

    @property
    def latency_speedup(self) -> float:
        """Reference latency / this latency (>1 means faster)."""
        return 1.0 / self.latency_ratio if self.latency_ratio else float("inf")

    @property
    def energy_saving(self) -> float:
        """Fractional energy saving vs the reference (0.36 == 36%)."""
        return 1.0 - self.energy_ratio

    @property
    def memory_saving(self) -> float:
        """Fractional memory saved versus the baseline method."""
        return 1.0 - self.memory_ratio


@dataclass
class CostReport:
    """A set of method costs normalized to the first (reference) row."""

    profile_name: str
    rows: list[MethodCost]

    def format_table(self) -> str:
        """ASCII table in the style of the paper's result summaries."""
        header = (
            f"{'method':24s} {'old acc':>8s} {'new acc':>8s} {'latency':>10s} "
            f"{'speedup':>8s} {'energy':>10s} {'saving':>8s} {'latent B':>10s} {'saving':>8s}"
        )
        lines = [f"cost report on {self.profile_name}", header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.label:24s} {row.old_accuracy:8.4f} {row.new_accuracy:8.4f} "
                f"{row.latency_s:10.4g} {row.latency_speedup:7.2f}x "
                f"{row.energy_j:10.4g} {row.energy_saving:7.1%} "
                f"{row.latent_bytes:10d} {row.memory_saving:7.1%}"
            )
        return "\n".join(lines)
