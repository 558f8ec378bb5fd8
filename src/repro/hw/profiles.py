"""Hardware profiles: per-operation energies and throughputs.

Constants are order-of-magnitude values from the public literature
(Horowitz ISSCC'14 energy tables; Davies et al. Loihi IEEE Micro'18):
a 32-bit float MAC costs a few pJ in a 45 nm-class process, an
event-driven synaptic operation on a neuromorphic core costs tens of pJ
including routing, and SRAM accesses cost ~0.1 pJ/byte-class numbers.
Absolute values only scale the results — every figure in the paper (and
in our benches) is *normalized*, so the ratios are what matter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = [
    "HardwareProfile",
    "embedded_neuromorphic",
    "loihi_like",
    "edge_gpu_like",
]


@dataclass(frozen=True)
class HardwareProfile:
    """An execution target for the cost model.

    Attributes
    ----------
    name:
        Profile identifier used in reports.
    mode:
        ``"event"`` — compute cost scales with synaptic events (SOPs),
        the neuromorphic execution model; ``"dense"`` — cost scales with
        MACs, the GPU/accelerator model.
    energy_per_sop / energy_per_mac:
        Joules per synaptic operation / per multiply-accumulate.
    energy_per_neuron_update:
        Joules per neuron state update (leak + compare per timestep).
    energy_per_byte:
        Joules per byte of weight/activation memory traffic.
    sop_throughput / mac_throughput / update_throughput:
        Operations per second the cost model times ops at.
    codec_cell_throughput:
        Raster cells per second the (de)compression path processes.
    energy_per_codec_cell:
        Joules per raster cell touched by the codec.
    barrier_step_time:
        Seconds per timestep synchronisation barrier (per layer, per
        sample).  Event-driven cores advance in lockstep; this fixed
        per-timestep cost is why latency tracks the timestep count even
        at constant spike counts (the paper's Fig. 8b observation C).
    static_power:
        Watts drawn regardless of activity; multiplied by latency.
    """

    name: str
    mode: str
    energy_per_sop: float
    energy_per_mac: float
    energy_per_neuron_update: float
    energy_per_byte: float
    sop_throughput: float
    mac_throughput: float
    update_throughput: float
    codec_cell_throughput: float
    energy_per_codec_cell: float
    barrier_step_time: float
    static_power: float

    def __post_init__(self):
        if self.mode not in ("event", "dense"):
            raise ConfigError(f"mode must be 'event' or 'dense', got {self.mode!r}")
        numeric = (
            self.energy_per_sop,
            self.energy_per_mac,
            self.energy_per_neuron_update,
            self.energy_per_byte,
            self.sop_throughput,
            self.mac_throughput,
            self.update_throughput,
            self.codec_cell_throughput,
            self.energy_per_codec_cell,
            self.barrier_step_time,
        )
        if any(v <= 0 for v in numeric):
            raise ConfigError(f"profile {self.name!r} has non-positive constants")
        if self.static_power < 0:
            raise ConfigError("static_power must be >= 0")


def embedded_neuromorphic() -> HardwareProfile:
    """Default target: a small event-driven neuromorphic SoC.

    The use-case of paper Fig. 1(b) — a battery-powered mobile agent.
    """
    return HardwareProfile(
        name="embedded-neuromorphic",
        mode="event",
        energy_per_sop=20e-12,  # ~20 pJ incl. routing
        energy_per_mac=4e-12,
        energy_per_neuron_update=2e-12,
        energy_per_byte=0.5e-12,  # on-chip SRAM
        sop_throughput=2e9,
        mac_throughput=5e9,
        update_throughput=5e9,
        codec_cell_throughput=1e9,
        energy_per_codec_cell=1e-12,
        # Calibrated so barrier time and event compute are comparable for
        # embedded-class networks (tens-of-neurons layers); this yields
        # per-epoch speedups that saturate below the raw timestep ratio,
        # as the paper's 2.34x (vs 100/40 = 2.5x) does.
        barrier_step_time=0.5e-6,
        static_power=0.05,  # 50 mW SoC idle
    )


def loihi_like() -> HardwareProfile:
    """A Loihi-class manycore neuromorphic processor."""
    return HardwareProfile(
        name="loihi-like",
        mode="event",
        energy_per_sop=23.6e-12,  # Davies et al. 2018 synaptic-op energy
        energy_per_mac=10e-12,
        energy_per_neuron_update=81e-12,  # neuron update energy
        energy_per_byte=1e-12,
        sop_throughput=10e9,
        mac_throughput=1e9,
        update_throughput=10e9,
        codec_cell_throughput=2e9,
        energy_per_codec_cell=2e-12,
        barrier_step_time=5e-6,
        static_power=0.1,
    )


def edge_gpu_like() -> HardwareProfile:
    """A dense edge accelerator (Jetson-class): cost scales with MACs."""
    return HardwareProfile(
        name="edge-gpu-like",
        mode="dense",
        energy_per_sop=4e-12,
        energy_per_mac=2e-12,
        energy_per_neuron_update=1e-12,
        energy_per_byte=7e-12,  # DRAM-heavy traffic
        sop_throughput=50e9,
        mac_throughput=500e9,
        update_throughput=100e9,
        codec_cell_throughput=5e9,
        energy_per_codec_cell=0.5e-12,
        barrier_step_time=5e-6,  # kernel-launch per step
        static_power=5.0,
    )
