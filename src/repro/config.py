"""Typed configuration objects shared across the library.

Configs are frozen dataclasses with validation in ``__post_init__`` so a
bad experiment fails at construction time, not three epochs in.  The
`replace`-style helpers return modified copies, keeping experiment sweeps
functional (no mutation).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

from repro.errors import ConfigError

__all__ = [
    "NetworkConfig",
    "PretrainConfig",
    "NCLConfig",
    "ExperimentConfig",
    "PAPER_LAYER_SIZES",
    "EnvFlag",
    "ENV_FLAGS",
    "env_flag",
    "env_value",
    "trace_selection",
]

# The paper's Fig. 6 architecture: 700 input channels, hidden layers of
# 200/100/50 recurrent LIF neurons, 20 readout classes.
PAPER_LAYER_SIZES: tuple[int, ...] = (700, 200, 100, 50, 20)


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and neuron parameters for the recurrent SNN.

    The network is the one of Fig. 6a: recurrent LIF hidden layers with
    Eq. 2's hard reset, and a leaky readout whose logits are the
    membrane's mean over time.

    Attributes
    ----------
    layer_sizes:
        ``(input, hidden..., classes)``.  The paper uses
        ``(700, 200, 100, 50, 20)`` — four weight layers (L=4), the last
        being a non-spiking leaky readout.
    beta:
        Membrane decay per timestep, ``exp(-dt/tau)`` in Eq. (1).
    threshold:
        Baseline neuron threshold potential ``Vthr`` (Eq. 2).
    """

    layer_sizes: tuple[int, ...] = PAPER_LAYER_SIZES
    beta: float = 0.95
    threshold: float = 1.0

    def __post_init__(self):
        if len(self.layer_sizes) < 3:
            raise ConfigError(
                "layer_sizes needs at least (input, hidden, classes); "
                f"got {self.layer_sizes}"
            )
        if any(n <= 0 for n in self.layer_sizes):
            raise ConfigError(f"layer sizes must be positive: {self.layer_sizes}")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        if self.threshold <= 0:
            raise ConfigError(f"threshold must be positive, got {self.threshold}")

    @property
    def num_weight_layers(self) -> int:
        """Number of weight layers L (hidden layers + readout)."""
        return len(self.layer_sizes) - 1

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    def replace(self, **kwargs) -> "NetworkConfig":
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class PretrainConfig:
    """Pre-training phase settings (Alg. 1, lines 1-5)."""

    epochs: int = 50
    learning_rate: float = 1e-3  # eta_pre in Alg. 1 line 2
    timesteps: int = 100
    batch_size: int = 32

    def __post_init__(self):
        if self.epochs <= 0:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.timesteps <= 0:
            raise ConfigError(f"timesteps must be positive, got {self.timesteps}")
        if self.batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")

    def replace(self, **kwargs) -> "PretrainConfig":
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class NCLConfig:
    """Continual-learning phase settings (Alg. 1, lines 6-33).

    Attributes
    ----------
    timesteps:
        NCL-phase timestep count.  100 for SpikingLR; the reduced ``T*``
        (default 40, from Fig. 8 Observation B) for Replay4NCL.
    learning_rate_divisor:
        ``eta_cl = eta_pre / divisor``; 100 for Replay4NCL (Alg. 1 line
        6/21), 10 for the SpikingLR comparator.
    base_learning_rate:
        The ``eta_pre`` entering the divisor rule.  None (default) uses
        the actual pre-training rate; the small-scale presets set it
        higher because far fewer optimizer steps per epoch are available
        than at paper scale (see :mod:`repro.eval.scale`).
    insertion_layer:
        Index of the LR insertion layer ``Lins`` in ``0..L-1`` weight
        layers (hidden layers only; the readout cannot host LR data).
    replay_fraction:
        Fraction of the pre-training set stored as latent replay data
        (``TS_replay ⊆ TS_pre``).
    adjust_interval:
        Alg. 1's ``adjust_interval`` for the adaptive threshold (=5).
    adaptive_threshold:
        Replay4NCL's dynamic Vthr policy; off for SpikingLR.
    """

    timesteps: int = 40
    learning_rate_divisor: float = 100.0
    base_learning_rate: float | None = None
    insertion_layer: int = 3
    replay_fraction: float = 0.25
    adjust_interval: int = 5
    adaptive_threshold: bool = True
    epochs: int = 50
    batch_size: int = 32

    def __post_init__(self):
        if self.timesteps <= 0:
            raise ConfigError(f"timesteps must be positive, got {self.timesteps}")
        if self.learning_rate_divisor <= 0:
            raise ConfigError(
                f"learning_rate_divisor must be positive, got {self.learning_rate_divisor}"
            )
        if self.base_learning_rate is not None and self.base_learning_rate <= 0:
            raise ConfigError(
                f"base_learning_rate must be positive, got {self.base_learning_rate}"
            )
        if self.insertion_layer < 0:
            raise ConfigError(f"insertion_layer must be >= 0, got {self.insertion_layer}")
        if not 0.0 < self.replay_fraction <= 1.0:
            raise ConfigError(
                f"replay_fraction must lie in (0, 1], got {self.replay_fraction}"
            )
        if self.adjust_interval <= 0:
            raise ConfigError(f"adjust_interval must be positive, got {self.adjust_interval}")
        if self.epochs <= 0:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")

    def replace(self, **kwargs) -> "NCLConfig":
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class ExperimentConfig:
    """A complete class-incremental experiment specification."""

    network: NetworkConfig = field(default_factory=NetworkConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    ncl: NCLConfig = field(default_factory=NCLConfig)
    seed: int = 0
    num_pretrain_classes: int = 19
    samples_per_class: int = 32
    test_samples_per_class: int = 16

    def __post_init__(self):
        if not 0 < self.num_pretrain_classes < self.network.num_classes:
            raise ConfigError(
                f"num_pretrain_classes must lie in (0, {self.network.num_classes}); "
                f"got {self.num_pretrain_classes}"
            )
        if self.samples_per_class <= 0 or self.test_samples_per_class <= 0:
            raise ConfigError("sample counts must be positive")
        if self.ncl.insertion_layer >= self.network.num_weight_layers:
            raise ConfigError(
                f"insertion_layer {self.ncl.insertion_layer} out of range for a network "
                f"with {self.network.num_weight_layers} weight layers"
            )

    def replace(self, **kwargs) -> "ExperimentConfig":
        return dataclasses.replace(self, **kwargs)


# ----------------------------------------------------------------------
# Process-environment flags.
#
# Every ``REPRO_*`` environment variable the library honours is declared
# here, once, so the documentation (docs/env.md, README) can be verified
# against the code instead of drifting per-PR.  Consumers read the
# environment *through* these helpers; nothing else in the library calls
# ``os.environ`` for a REPRO_ flag directly.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EnvFlag:
    """Declaration of one ``REPRO_*`` environment variable.

    Attributes:
        name: The environment variable, e.g. ``"REPRO_CACHE"``.
        default: Effective value when the variable is unset.
        values: Human-readable domain, e.g. ``"ci | bench | paper"``.
        description: One-line summary used by the docs reference.
    """

    name: str
    default: str
    values: str
    description: str


#: The consolidated registry of every environment flag the library reads.
ENV_FLAGS: tuple[EnvFlag, ...] = (
    EnvFlag(
        "REPRO_BENCH_SCALE",
        "bench",
        "ci | bench | paper",
        "Workload size of the benchmark suite (benchmarks/bench_*.py).",
    ),
    EnvFlag(
        "REPRO_CACHE",
        "./.repro_cache",
        "directory path",
        "Directory for cached pre-trained weights and compiled C kernels.",
    ),
    EnvFlag(
        "REPRO_TRACE",
        "0",
        "0 | 1 | file path",
        "Structured tracing (`repro.obs`): 1 records spans/metrics "
        "in-process, a file path additionally exports them as JSONL.",
    ),
)


def env_flag(name: str) -> EnvFlag:
    """Look up the declaration of one environment flag by name.

    Raises:
        ConfigError: If ``name`` is not a declared ``REPRO_*`` flag.
    """
    for flag in ENV_FLAGS:
        if flag.name == name:
            return flag
    raise ConfigError(
        f"unknown environment flag {name!r}; declared flags: "
        f"{', '.join(f.name for f in ENV_FLAGS)}"
    )


#: Each flag's key as ``os.environ`` stores it, and its default.
_ENV_KEYS = {
    flag.name: (os.environ.encodekey(flag.name), flag.default) for flag in ENV_FLAGS
}


def env_value(name: str) -> str:
    """Read a declared environment flag's raw string value.

    Returns the process-environment value, or the flag's declared
    default when the variable is unset.  This is the one blessed way
    for library code to read a ``REPRO_*`` variable (the ``RPL003``
    lint rule forbids direct ``os.environ`` access outside this
    module), so every knob is declared, documented, and conformance-
    tested in one place.

    Raises:
        ConfigError: If ``name`` is not a declared ``REPRO_*`` flag.
    """
    if name not in _ENV_KEYS:
        env_flag(name)  # raises, naming the declared flags
    key, default = _ENV_KEYS[name]
    # os.environ's backing dict, which every os.environ write updates:
    # os.environ.get raises and catches two KeyErrors for an unset
    # variable (~1.5 us), and tracing reads REPRO_TRACE on every
    # recorder lookup (one per kernel sweep).
    raw = os.environ._data.get(key)
    return default if raw is None else os.environ.decodevalue(raw)


def trace_selection() -> tuple[bool, str | None]:
    """The parsed ``REPRO_TRACE`` selection for this process.

    Returns ``(enabled, export_path)``: ``("0"|"false"|"off"|"")``
    disables tracing, ``("1"|"true"|"on")`` enables in-process recording
    only, and any other value enables recording *and* names the JSONL
    file traced runs export to.  Consulted at every use site, so
    flipping the variable mid-process takes effect immediately.
    """
    raw = os.environ.get("REPRO_TRACE", env_flag("REPRO_TRACE").default).strip()
    low = raw.lower()
    if low in ("", "0", "false", "off"):
        return (False, None)
    if low in ("1", "true", "on"):
        return (True, None)
    return (True, raw)
